package index

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/sets"
)

// columnsMatchGraph checks that every column cols serves equals one built
// fresh from g — the "never served for a graph it was not built from"
// property — and so do the endpoint arrays.
func columnsMatchGraph(t *testing.T, label string, cols *Columns, g *graph.Graph) {
	t.Helper()
	same := func(kind, attr string, got, want *graph.Column) {
		if !sameColumn(got, want) {
			t.Fatalf("%s: %s column %q = %+v, want %+v", label, kind, attr, got, want)
		}
	}
	for _, attr := range []string{"slots", "cpu", "os", "nope"} {
		same("node", attr, cols.NodeColumn(attr), g.NodeColumn(attr, nil))
	}
	for _, attr := range []string{"delay", "loss", "nope"} {
		same("edge", attr, cols.EdgeColumn(attr), g.EdgeColumn(attr, nil))
	}
	from, to := cols.Endpoints()
	if len(from) != g.NumEdges() || len(to) != g.NumEdges() {
		t.Fatalf("%s: endpoints cover %d/%d edges, want %d", label, len(from), len(to), g.NumEdges())
	}
	for i := range from {
		if e := g.Edge(graph.EdgeID(i)); from[i] != e.From || to[i] != e.To {
			t.Fatalf("%s: endpoints[%d] = %d->%d, want %d->%d", label, i, from[i], to[i], e.From, e.To)
		}
	}
}

// sameColumn reports whether two columns hold the same elements (payloads
// under a tag that does not read them are not compared); an undefined
// attribute's nil column equals only nil.
func sameColumn(got, want *graph.Column) bool {
	if got == nil || want == nil {
		return got == want
	}
	if !slices.Equal(got.Tags, want.Tags) {
		return false
	}
	for i, tag := range want.Tags {
		if tag == graph.TagNumber && got.Nums[i] != want.Nums[i] ||
			tag == graph.TagString && got.Strs[i] != want.Strs[i] {
			return false
		}
	}
	return true
}

// armAll builds the range index of every numeric column cols has built.
func armAll(cols *Columns) {
	for _, col := range append(slices.Collect(maps.Values(cols.edge)), slices.Collect(maps.Values(cols.node))...) {
		cols.Range(col)
	}
}

// rangesMatchGraph checks that every range index cols has armed answers
// comparisons with a constant — drawn from the column itself, so equality
// is exercised — exactly as the per-pair evaluator does on g's attributes.
func rangesMatchGraph(t *testing.T, label string, cols *Columns, g *graph.Graph) {
	t.Helper()
	var s expr.Scratch
	check := func(object, attr string, col *graph.Column, n int, eval func(p *expr.Program, c graph.Attrs, mask *sets.Bitset), want func(p *expr.Program, c graph.Attrs, i int) bool) {
		if col == nil || !cols.Armed(col) {
			return
		}
		mask := sets.NewBitset(n)
		for _, at := range []int{0, n / 2, n - 1} {
			c := graph.Attrs{}.SetNum("c", col.Nums[at])
			for _, op := range []string{">=", "<", "==", "!="} {
				p := expr.MustCompile(object + "." + attr + op + "vEdge.c")
				if object == "rNode" {
					p = expr.MustCompile(object + "." + attr + op + "vNode.c")
				}
				eval(p, c, mask)
				for i := 0; i < n; i++ {
					if mask.Has(int32(i)) != want(p, c, i) {
						t.Fatalf("%s: %q with c=%v: element %d = %v", label, p, col.Nums[at], i, mask.Has(int32(i)))
					}
				}
			}
		}
	}
	for attr, col := range cols.edge {
		check("rEdge", attr, col, g.NumEdges(),
			func(p *expr.Program, c graph.Attrs, mask *sets.Bitset) {
				p.EvalEdgeBatch(&expr.EdgeBatch{VEdge: c, Host: cols}, &s, mask)
			},
			func(p *expr.Program, c graph.Attrs, i int) bool {
				return p.EvalEdge(&expr.EdgeBinding{VEdge: c, REdge: g.Edge(graph.EdgeID(i)).Attrs})
			})
	}
	for attr, col := range cols.node {
		check("rNode", attr, col, g.NumNodes(),
			func(p *expr.Program, c graph.Attrs, mask *sets.Bitset) {
				p.EvalNodeBatch(&expr.NodeBatch{VNode: c, Host: cols}, &s, mask)
			},
			func(p *expr.Program, c graph.Attrs, i int) bool {
				return p.EvalNode(&expr.NodeBinding{VNode: c, RNode: g.Node(graph.NodeID(i)).Attrs})
			})
	}
}

func attrNames(a graph.Attrs) []string {
	var out []string
	for attr := range a {
		out = append(out, attr)
	}
	return out
}

// randomEdgeAttrDelta re-measures random links (the monitor's shape).
func randomEdgeAttrDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	var d graph.Delta
	for i := 0; i < 1+rng.Intn(3) && g.NumEdges() > 0; i++ {
		e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		up := graph.EdgeAttrUpdate{Source: g.Node(e.From).Name, Target: g.Node(e.To).Name}
		switch rng.Intn(3) {
		case 0:
			up.Set = graph.Attrs{}.SetNum("delay", rng.Float64()*100)
		case 1:
			up.Set = graph.Attrs{}.SetNum("loss", rng.Float64())
		default:
			up.Unset = []string{"delay"}
		}
		d.SetEdgeAttrs = append(d.SetEdgeAttrs, up)
	}
	return &d
}

func TestBuildMaterialisesNoColumns(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), false)
	cols := Build(g, 1, Config{}).ColumnsFor(g)
	if cols == nil {
		t.Fatal("ColumnsFor(indexed graph) = nil")
	}
	if len(cols.edge)+len(cols.node)+len(cols.from) != 0 {
		t.Fatal("Build materialised columns eagerly; setup cost must stay flat")
	}
}

func TestColumnsForIsPointerIdentity(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), true)
	ix := Build(g, 1, Config{})
	if ix.ColumnsFor(g.Clone()) != nil {
		t.Fatal("ColumnsFor served a clone: equal structure is not the same graph")
	}
	if ix.ColumnsFor(g) != ix.ColumnsFor(g) {
		t.Fatal("ColumnsFor is not stable")
	}
}

// TestApplyCarriesColumns drives random delta chains through Apply with
// every column warm and every range index armed, and checks after each
// step that the successor serves exactly its own graph's columns, shares
// every column the delta did not name (pointer-equal) together with its
// range index, dropped the named ones — whose fresh columns start unarmed
// — starts empty after a structural delta, and that every earlier
// snapshot still serves its own columns and indexes after all the later
// writes.
func TestApplyCarriesColumns(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		g := randomGraph(rng, seed%2 == 0)
		ix := Build(g, 1, Config{})
		type snapshot struct {
			cols *Columns
			g    *graph.Graph
		}
		var history []snapshot
		for step := 0; step < 10; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			cols := ix.ColumnsFor(g)
			columnsMatchGraph(t, label+" (warm-up)", cols, g) // materialises everything
			armAll(cols)
			rangesMatchGraph(t, label+" (warm-up)", cols, g)
			history = append(history, snapshot{cols, g})
			var d *graph.Delta
			switch rng.Intn(6) {
			case 0:
				d = randomAttrDelta(rng, g)
			case 1:
				d = randomEdgeAttrDelta(rng, g)
			case 2:
				d = randomStructDelta(rng, g)
			case 3: // edges move, some node attributes change with them
				d = randomStructDelta(rng, g)
				d.SetNodeAttrs = randomAttrDelta(rng, g).SetNodeAttrs
			case 4:
				d = &graph.Delta{AddNodes: []graph.NodeSpec{{Name: fmt.Sprintf("extra-%d-%d", seed, step)}}}
			default:
				d = randomAttrDelta(rng, g)
				d.SetEdgeAttrs = randomEdgeAttrDelta(rng, g).SetEdgeAttrs
			}
			next, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			patched := ix.Apply(g, next, d, uint64(step+2))
			if next != g && patched.ColumnsFor(g) != nil {
				t.Fatalf("%s: successor serves the predecessor's graph", label)
			}
			nextCols := patched.ColumnsFor(next)
			if nextCols == nil {
				t.Fatalf("%s: successor does not serve its own graph", label)
			}
			// Node add/remove renumbers everything; edge add/remove only
			// the edges, so node columns outlive it.
			nodesMoved := len(d.AddNodes) > 0 || len(d.RemoveNodes) > 0
			edgesMoved := nodesMoved || len(d.AddEdges) > 0 || len(d.RemoveEdges) > 0
			if nodesMoved && len(nextCols.node) != 0 {
				t.Fatalf("%s: node columns survived a node add/remove", label)
			}
			if edgesMoved && len(nextCols.edge)+len(nextCols.from)+len(nextCols.to) != 0 {
				t.Fatalf("%s: edge columns or endpoints survived an edge renumbering", label)
			}
			if !nodesMoved && !d.Empty() {
				named := map[string]bool{}
				for _, up := range d.SetNodeAttrs {
					for _, attr := range append(attrNames(up.Set), up.Unset...) {
						named[attr] = true
					}
				}
				for attr, col := range cols.node {
					if got := nextCols.node[attr]; named[attr] && got != nil || !named[attr] && got != col {
						t.Fatalf("%s: node column %q: named=%v, carried=%v", label, attr, named[attr], got == col)
					}
					if !named[attr] && nextCols.Range(col) != cols.Range(col) {
						t.Fatalf("%s: node column %q carried without its range index", label, attr)
					}
				}
			}
			if !edgesMoved && !d.Empty() {
				named := map[string]bool{}
				for _, up := range d.SetEdgeAttrs {
					for _, attr := range append(attrNames(up.Set), up.Unset...) {
						named[attr] = true
					}
				}
				for attr, col := range cols.edge {
					if got := nextCols.edge[attr]; named[attr] && got != nil || !named[attr] && got != col {
						t.Fatalf("%s: edge column %q: named=%v, carried=%v", label, attr, named[attr], got == col)
					}
					if !named[attr] && nextCols.Range(col) != cols.Range(col) {
						t.Fatalf("%s: edge column %q carried without its range index", label, attr)
					}
				}
			}
			columnsMatchGraph(t, label+" (patched)", nextCols, next)
			for _, col := range append(slices.Collect(maps.Values(nextCols.edge)), slices.Collect(maps.Values(nextCols.node))...) {
				if _, carried := cols.ranges[col]; !carried && nextCols.Armed(col) {
					t.Fatalf("%s: a column the successor rebuilt came with an armed range index", label)
				}
			}
			g, ix = next, patched
		}
		for i, old := range history {
			label := fmt.Sprintf("seed %d, snapshot %d after the whole chain", seed, i)
			columnsMatchGraph(t, label, old.cols, old.g)
			rangesMatchGraph(t, label, old.cols, old.g)
		}
	}
}

// TestApplyFromForeignBaseStartsEmpty: a caller that hands Apply a base
// graph other than the indexed one gets no carried columns, whatever the
// delta says.
func TestApplyFromForeignBaseStartsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, false)
	ix := Build(g, 1, Config{})
	ix.ColumnsFor(g).NodeColumn("cpu")
	other := g.Clone()
	d := randomEdgeAttrDelta(rng, other)
	next, err := other.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if cols := ix.Apply(other, next, d, 2).ColumnsFor(next); len(cols.node) != 0 {
		t.Fatal("columns carried across a base graph they were not built from")
	}
}

// TestUnknownAttributesAreNotCached: attribute names come from client
// constraints, so a name the graph does not define must leave nothing
// behind on the snapshot — however many distinct names arrive, and across
// the deltas that carry the cache forward.
func TestUnknownAttributesAreNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, false)
	ix := Build(g, 1, Config{})
	cols := ix.ColumnsFor(g)
	cols.EdgeColumn("delay")
	cols.NodeColumn("cpu")
	held := func(c *Columns) int { return len(c.edge) + len(c.node) + len(c.free) }
	before := held(cols)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("a%d", i)
		if cols.EdgeColumn(name) != nil || cols.NodeColumn(name) != nil {
			t.Fatalf("attribute %q, which nothing defines, has a column", name)
		}
	}
	if held(cols) != before {
		t.Fatalf("cache grew from %d to %d entries on undefined attribute names", before, held(cols))
	}
	d := randomEdgeAttrDelta(rng, g)
	next, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if carried := ix.Apply(g, next, d, 2).ColumnsFor(next); held(carried) > before {
		t.Fatalf("successor holds %d entries, predecessor %d", held(carried), before)
	}
}

// TestColumnsScratchReset: a standalone Columns re-bound to another graph
// serves that graph's columns out of recycled storage, with its range
// indexes dropped.
func TestColumnsScratchReset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randomGraph(rng, false), randomGraph(rng, true)
	cols := NewColumns(a)
	columnsMatchGraph(t, "first graph", cols, a)
	armAll(cols)
	cols.Reset(b, nil)
	columnsMatchGraph(t, "after Reset", cols, b)
	for _, col := range cols.edge {
		if cols.Armed(col) {
			t.Fatal("a recycled column kept the previous graph's range index")
		}
	}
	cols.Reset(nil, nil)
	if cols.g != nil || len(cols.edge)+len(cols.node)+len(cols.ranges) != 0 {
		t.Fatal("Reset(nil) keeps the graph, its columns or their range indexes reachable")
	}
}

// TestScratchServesOverlayEdgesFromSnapshot: scratch bound to a
// reservation overlay of an indexed graph — same edge pages, other node
// attributes — serves the snapshot's edge columns, range indexes and
// endpoint arrays and builds none of its own, while its node columns are
// its own and show the marks. Bound to a clone, it builds everything.
func TestScratchServesOverlayEdgesFromSnapshot(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(12)), false)
	ix := Build(g, 1, Config{})
	snap := ix.ColumnsFor(g)
	columnsMatchGraph(t, "snapshot", snap, g)
	armAll(snap)
	marked := g.WithNodeAttrs([]graph.NodeID{0, 3}, graph.Attrs{}.SetNum("cpu", 99))
	scratch := NewColumns(nil)
	scratch.Reset(marked, ix)
	columnsMatchGraph(t, "overlay", scratch, marked)
	if len(scratch.edge)+len(scratch.from)+len(scratch.to) != 0 {
		t.Fatal("scratch over an overlay built edge columns or endpoints of its own")
	}
	delay := scratch.EdgeColumn("delay")
	if delay != snap.EdgeColumn("delay") || !scratch.Armed(delay) || scratch.Range(delay) != snap.Range(delay) {
		t.Fatal("scratch over an overlay does not serve the snapshot's edge column and range index")
	}
	if from, _ := scratch.Endpoints(); &from[0] != &snap.from[0] {
		t.Fatal("scratch over an overlay copied the endpoint arrays")
	}
	if cpu := scratch.NodeColumn("cpu"); cpu == snap.NodeColumn("cpu") || cpu.Nums[3] != 99 {
		t.Fatal("scratch over an overlay served the snapshot's node column")
	}
	scratch.Reset(g.Clone(), ix)
	columnsMatchGraph(t, "clone", scratch, g)
	if scratch.EdgeColumn("delay") == snap.EdgeColumn("delay") {
		t.Fatal("scratch over a clone served the snapshot's edge column")
	}
}

// TestStringColumnLeavesOthersUnarmed: a program of the rangeable shape
// that reads a column with a string payload runs chunked without arming
// the numeric columns beside it, and answers as the per-pair evaluator.
func TestStringColumnLeavesOthersUnarmed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, false)
	for g.NodeColumn("os", nil) == nil || g.NodeColumn("cpu", nil) == nil {
		g = randomGraph(rng, false)
	}
	cols := Build(g, 1, Config{}).ColumnsFor(g)
	p := expr.MustCompile("rNode.cpu >= vNode.cpu && rNode.os == vNode.os")
	v := graph.Attrs{}.SetNum("cpu", 4).SetStr("os", "linux")
	mask := sets.NewBitset(g.NumNodes())
	var s expr.Scratch
	p.EvalNodeBatch(&expr.NodeBatch{VNode: v, Host: cols}, &s, mask)
	if cols.Armed(cols.NodeColumn("cpu")) {
		t.Fatal("a program that cannot take the range path armed one of its columns")
	}
	for i := 0; i < g.NumNodes(); i++ {
		if mask.Has(int32(i)) != p.EvalNode(&expr.NodeBinding{VNode: v, RNode: g.Node(graph.NodeID(i)).Attrs}) {
			t.Fatalf("node %d: batch = %v, per-pair disagrees", i, mask.Has(int32(i)))
		}
	}
}

// TestColumnsConcurrentFill hammers one cache from several goroutines, as
// concurrent requests against one snapshot do (run under -race).
func TestColumnsConcurrentFill(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), false)
	cols := Build(g, 1, Config{}).ColumnsFor(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if cols.EdgeColumn("delay") != cols.EdgeColumn("delay") || len(cols.NodeColumn("cpu").Tags) != g.NumNodes() {
					t.Error("concurrent fills disagree")
				}
				cols.Endpoints()
			}
		}()
	}
	wg.Wait()
}

// TestColumnsConcurrentArming: eight goroutines asking one snapshot for a
// column's range index at once all get the same one (run under -race).
func TestColumnsConcurrentArming(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), false)
	cols := Build(g, 1, Config{}).ColumnsFor(g)
	col := cols.EdgeColumn("delay")
	got := make([]*expr.Range, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = cols.Range(col)
		}()
	}
	wg.Wait()
	for _, r := range got {
		if r == nil || r != got[0] {
			t.Fatal("concurrent arming built more than one range index for one column")
		}
	}
}
