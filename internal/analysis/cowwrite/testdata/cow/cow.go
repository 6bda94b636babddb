// Package cow seeds cowwrite violations: element writes through shared
// COW storage without cloning the field first.
package cow

// Bitset mimics sets.Bitset's in-place mutators.
type Bitset struct{ words []uint64 }

func (b *Bitset) Set(i int)      { b.words[i>>6] |= 1 << (i & 63) }
func (b *Bitset) Clear(i int)    { b.words[i>>6] &^= 1 << (i & 63) }
func (b *Bitset) Clone() *Bitset { return &Bitset{append([]uint64(nil), b.words...)} }
func (b *Bitset) UnionWith(o *Bitset) {
	for i := range o.words {
		b.words[i] |= o.words[i]
	}
}

// Index mimics the COW snapshot: rows and postings may be shared with
// the previous snapshot.
type Index struct {
	version  uint64
	rows     []*Bitset          //cow:shared
	postings map[string][]int32 //cow:shared
	pages    [][]int32          //cow:shared
	scratch  []int              // unmarked: free to mutate
}

// goodPatch is the clone-then-patch idiom.
func (ix *Index) goodPatch(touched []int) *Index {
	out := *ix
	out.rows = append([]*Bitset(nil), out.rows...)
	for _, r := range touched {
		out.rows[r] = out.rows[r].Clone()
		out.rows[r].Set(1)
	}
	return &out
}

// badPatch writes an element of the shared row slice without cloning.
func (ix *Index) badPatch(touched []int) *Index {
	out := *ix
	for _, r := range touched {
		out.rows[r] = &Bitset{} // want `element write of //cow:shared field rows`
	}
	return &out
}

// badMutator calls an in-place mutator through the shared storage.
func (ix *Index) badMutator(r int) {
	ix.rows[r].Set(3) // want `mutator-method write of //cow:shared field rows`
}

// badDelete deletes from the shared postings map without cloning.
func (ix *Index) badDelete(attr string) {
	delete(ix.postings, attr) // want `map write of //cow:shared field postings`
}

// goodDelete clones the map first.
func (ix *Index) goodDelete(attr string) {
	fresh := make(map[string][]int32, len(ix.postings))
	for k, v := range ix.postings {
		fresh[k] = v
	}
	ix.postings = fresh
	delete(ix.postings, attr)
}

// badAlias mutates through a bare local alias of the shared field.
func (ix *Index) badAlias(attr string, id int32) {
	p := ix.postings
	p[attr] = append(p[attr], id) // want `element write of //cow:shared field postings`
}

// badShareThenWrite re-binds from a bare read — sharing, not cloning.
func (ix *Index) badShareThenWrite(o *Index, r int) {
	ix.rows = o.rows
	ix.rows[r] = &Bitset{} // want `element write of //cow:shared field rows`
}

// goodLiteralClone clones via a composite literal field value.
func cloneIndex(ix *Index) *Index {
	out := &Index{
		version:  ix.version,
		rows:     append([]*Bitset(nil), ix.rows...),
		postings: ix.postings,
	}
	out.rows[0] = out.rows[0].Clone()
	return out
}

// goodPagePatch is the two-level idiom: clone the page table, re-bind
// the page, then write the record.
func (ix *Index) goodPagePatch(p, i int, v int32) *Index {
	out := *ix
	out.pages = append([][]int32(nil), ix.pages...)
	out.pages[p] = append([]int32(nil), ix.pages[p]...)
	out.pages[p][i] = v
	return &out
}

// badPagePatch clones the page table only: page p is still the previous
// snapshot's.
func (ix *Index) badPagePatch(p, i int, v int32) *Index {
	out := *ix
	out.pages = append([][]int32(nil), ix.pages...)
	out.pages[p][i] = v // want `element write of //cow:shared field pages two levels deep without re-binding the row`
	return &out
}

// badPageShare re-binds the page from another shared page, resliced or
// not — sharing, not cloning.
func (ix *Index) badPageShare(o *Index, p, i int, v int32) *Index {
	out := *ix
	out.pages = append([][]int32(nil), ix.pages...)
	out.pages[p] = o.pages[p][:i+1]
	out.pages[p][i]++ // want `element write of //cow:shared field pages two levels deep`
	return &out
}

// badPageAlias writes the shared page through a local name for it.
func (ix *Index) badPageAlias(p, i int, v int32) *Index {
	out := *ix
	out.pages = append([][]int32(nil), ix.pages...)
	page := out.pages[p]
	page[i] = v // want `element write of //cow:shared field pages two levels deep`
	return &out
}

// badPageNoTable re-binds a page of a page table it never cloned.
func (ix *Index) badPageNoTable(p, i int, v int32) {
	ix.pages[p] = append([]int32(nil), ix.pages[p]...) // want `element write of //cow:shared field pages without cloning the field first`
	ix.pages[p][i] = v                                 // want `element write of //cow:shared field pages without cloning the field first`
}

// badRowMutator clones the row slice but mutates the Bitset row r still
// points at, which the previous snapshot points at too.
func (ix *Index) badRowMutator(r int) *Index {
	out := *ix
	out.rows = append([]*Bitset(nil), out.rows...)
	out.rows[r].Set(1) // want `mutator-method write of //cow:shared field rows two levels deep`
	return &out
}

// goodScratch mutates an unmarked field freely.
func (ix *Index) goodScratch(i, v int) {
	ix.scratch[i] = v
}

// allowedBuilder is construction-time mutation with no clone in sight,
// justified per function: the maps it pokes were freshly made by the
// constructor and nothing shares them yet.
//
//netembedvet:allow cowwrite builder mutation runs before the first snapshot is published
func (ix *Index) allowedBuilder(attr string, id int32) {
	ix.postings[attr] = append(ix.postings[attr], id)
}
