package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// Filters is the paper's sparse 3-D filter construction (§V-A). The cell
// F[v, r, vs] — "candidate mappings for query node vs when query node v is
// mapped to host node r" — is laid out as one table per *directed query
// arc* (v → vs), indexed by r, holding a candidate set. The companion
// non-match filter F̄ is derivable as the complement against the host
// adjacency; BuildFilters tracks only its aggregate size, since the search
// needs just the positive sets.
//
// Rows are stored in one of two representations, chosen adaptively by
// Options.Repr (see sets.Bitset): sorted []int32 slices, or dense bitsets
// over the host universe. Exactly one of tables/tablesB is populated; the
// search loops ask Dense() and intersect whichever the filters carry. The
// base candidate sets are always materialized as sorted slices (the
// ordering heuristics and root sharding read them), with bitset mirrors
// in dense mode.
//
// Base candidate sets realize formula (1): by default tightened to the
// intersection of per-neighbor unions (still a superset of any feasible
// root assignment, so completeness is preserved); Options.LooseRoot keeps
// the paper's literal union.
type Filters struct {
	p     *Problem
	nq    int
	nr    int
	dense bool

	// arcTables[key(u,v)] lists table indices applying when u is placed
	// and v's candidates are needed (two entries only if the digraph has
	// both (u,v) and (v,u) edges).
	arcTables map[uint64][]int32
	// tables[t][r] = sorted candidate set for the arc's head when its tail
	// is placed at host node r (sparse representation; nil when dense).
	tables [][]sets.Set
	// tablesB[t][r] = the same rows as bitsets; a nil row is empty
	// (dense representation; nil when sparse).
	tablesB [][]*sets.Bitset

	// base[q] = candidate host nodes for query node q before any
	// neighbor is placed, always as a sorted slice.
	base []sets.Set
	// baseB mirrors base as bitsets in dense mode.
	baseB []*sets.Bitset

	// nodePass[q] = host nodes passing the node constraint and degree
	// filter for q (nil when no filtering applies).
	nodePass []sets.Set

	stats Stats
	// The fill workers' shares of stats.EdgePairsEval and FilterEntries.
	pairsEval, entries atomic.Int64

	// Pool-recycled scratch (see pool.go): per-node admissibility
	// bitsets, positional row arenas for the dense fills, the tableOf
	// buffer, the incoming-arc dedup stamp with its output buffer, the
	// per-arc union accumulator of buildBaseDense, one constraint
	// evaluation scratch per fill worker, and the throw-away host columns
	// of builds the index's column cache cannot serve.
	passBits    []*sets.Bitset
	arenas      []rowArena
	arenaNext   int
	tableOf     []edgeTables
	arcStamp    *tableStamp
	arcsBuf     []int32
	unionBuf    *sets.Bitset
	evalScratch []evalScratch
	scratchCols *index.Columns
}

// evalScratch is one fill worker's state: the batch evaluator's registers,
// the satisfied-mask it fills (over host edges for the edge constraint,
// host nodes for the node constraint), and the dense fill's
// mask-adjacency: adj[0][r] holds the hosts r reaches over the admitted
// host arcs, adj[1][r] those reaching r.
type evalScratch struct {
	expr expr.Scratch
	mask *sets.Bitset
	adj  [2]rowArena
}

func arcKey(u, v graph.NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// denseWordCap bounds the per-row word count under which bitset rows
// always win: at ≤16 words (hosts up to 1024 nodes) an intersection is a
// few branch-free ops, cheaper than merging even short sorted slices.
const denseWordCap = 16

// chooseDense picks the row representation. Beyond the small-host regime
// the decision follows density: a filter row for arc (u,v) at host node r
// is a subset of r's neighbors, so the average host degree bounds the
// average row cardinality. Word-parallel AND (⌈nr/64⌉ ops) beats merging
// two average rows (~2·deg ops) once deg ≥ nr/128; requiring nr/64 adds
// slack so the dense tables (nr/8 bytes per non-empty row) never grossly
// outsize the slices they replace.
func chooseDense(repr Repr, nr, hostEdges int) bool {
	switch repr {
	case ReprSlice:
		return false
	case ReprBitset:
		return true
	}
	if nr == 0 {
		return false
	}
	if (nr+63)/64 <= denseWordCap {
		return true
	}
	avgDeg := 2 * float64(hostEdges) / float64(nr)
	return avgDeg >= float64(nr)/64
}

// BuildFilters is the first stage of ECF/RWB: it decides every (query
// node, host node) and (query edge, host edge) pairing and assembles the
// filter tables and base candidate sets.
//
// Constraints are evaluated in bulk, never pair by pair: per query
// element, one batch evaluation of the program over all host elements
// (expr.EvalNodeBatch / EvalEdgeBatch) yields a satisfied-mask, read from
// typed attribute columns, or from their range indexes once the snapshot
// has armed them. The columns come from the index's snapshot cache when
// Options.Index was built over p.Host itself, and are built into pooled
// scratch otherwise — all but the edge-side ones when p.Host shares the
// indexed graph's edges — so the result never depends on the cache.
//
// A compatible Options.Index additionally replaces the structural scans:
// node admissibility starts from the index's degree strata, and with no
// edge constraint the table rows are the index's adjacency bitsets. Every
// path produces identical candidate sets; the property tests pin them to
// Problem.EdgeFeasible/NodeFeasible, pair by pair.
func BuildFilters(p *Problem, opt *Options) *Filters {
	start := time.Now()
	idx := opt.Index
	if idx != nil &&
		(idx.NumNodes() != p.Host.NumNodes() ||
			idx.Directed() != p.Host.Directed() ||
			opt.Repr == ReprSlice) {
		// Stale snapshot (universe mismatch) or forced sparse rows: the
		// index cannot serve this build's structure.
		idx = nil
	}
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	dense := chooseDense(opt.Repr, nr, p.Host.NumEdges())
	if idx != nil {
		dense = true // index-backed tables are assembled as bitsets
	}
	f := acquireFilters()
	f.p = p
	f.nq, f.nr, f.dense = nq, nr, dense
	f.stats = Stats{}
	f.arenaNext = 0
	f.tables = f.tables[:0]
	f.tablesB = f.tablesB[:0]
	if f.arcTables == nil {
		f.arcTables = make(map[uint64][]int32, 2*p.Query.NumEdges())
	} else {
		clear(f.arcTables)
	}
	cols := f.hostColumns(opt.Index)
	f.evalScratch = grow(f.evalScratch, max(1, opt.Workers))

	// Per-node admissibility: node constraint ∧ degree filter.
	f.nodePass = grow(f.nodePass, nq)
	f.passBits = grow(f.passBits, nq)
	passBits := f.passBits
	f.buildNodePass(opt, idx, cols, passBits)
	f.fillTables(opt, idx, cols, passBits)

	if f.dense {
		f.buildBaseDense(opt.LooseRoot)
	} else {
		f.buildBase(opt.LooseRoot)
	}
	f.stats.FilterBuild = time.Since(start)
	return f
}

// hostColumns returns the attribute columns of p.Host: the snapshot cache
// of an index built over that very graph, else throw-away columns in
// pooled scratch (an index-less caller, a stale index, a clone).
func (f *Filters) hostColumns(idx *index.Index) *index.Columns {
	if idx != nil {
		if cols := idx.ColumnsFor(f.p.Host); cols != nil {
			return cols
		}
	}
	if f.scratchCols == nil {
		f.scratchCols = index.NewColumns(nil)
	}
	f.scratchCols.Reset(f.p.Host)
	return f.scratchCols
}

// buildNodePass computes per-node admissibility: the degree stratum —
// two ladder rungs of the index ANDed, or a scan of the host's degrees —
// intersected with the node's allow-set and the node constraint's
// satisfied-mask.
func (f *Filters) buildNodePass(opt *Options, idx *index.Index, cols *index.Columns, passBits []*sets.Bitset) {
	p := f.p
	ws := &f.evalScratch[0]
	for q := 0; q < f.nq; q++ {
		qid := graph.NodeID(q)
		pass := sets.ReuseBitset(passBits[q], f.nr)
		passBits[q] = pass
		degQ, outQ := p.Query.Degree(qid), p.Query.OutDegree(qid)
		if opt.NoDegreeFilter {
			degQ, outQ = 0, 0
		}
		if idx != nil {
			pass.CopyFrom(idx.DegreeAtLeast(degQ))
			pass.IntersectWith(idx.OutDegreeAtLeast(outQ))
		} else {
			for r := 0; r < f.nr; r++ {
				rid := graph.NodeID(r)
				if p.Host.Degree(rid) >= degQ && p.Host.OutDegree(rid) >= outQ {
					pass.Set(rid)
				}
			}
		}
		if p.Allow != nil && p.Allow[q] != nil {
			pass.IntersectWith(p.Allow[q])
		}
		if p.NodeConstraint != nil {
			ws.mask = sets.ReuseBitset(ws.mask, f.nr)
			p.NodeConstraint.EvalNodeBatch(&expr.NodeBatch{VNode: p.Query.Node(qid).Attrs, Host: cols}, &ws.expr, ws.mask)
			pass.IntersectWith(ws.mask)
		}
		f.nodePass[q] = pass.AppendTo(f.nodePass[q][:0])
	}
}

// edgeTables pairs the two table IDs owned by one query edge, with the
// arenas their dense rows live in.
type edgeTables struct {
	fwd, bwd int32
	arenas   [2][]sets.Bitset
}

// newArcTables allocates one table per directed query arc and, for dense
// rows, its arena of at most one row per admissible tail, serially so
// table IDs and the arc index are deterministic regardless of how the
// fill stage is parallelized.
func (f *Filters) newArcTables() []edgeTables {
	p := f.p
	newTable := func(u, v graph.NodeID) int32 {
		var id int32
		if f.dense {
			id = int32(len(f.tablesB))
			f.tablesB = appendTableB(f.tablesB, f.nr)
		} else {
			id = int32(len(f.tables))
			f.tables = appendTable(f.tables, f.nr)
		}
		k := arcKey(u, v)
		f.arcTables[k] = append(f.arcTables[k], id)
		return id
	}
	f.tableOf = grow(f.tableOf, p.Query.NumEdges())
	tableOf := f.tableOf
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		tableOf[i] = edgeTables{
			fwd: newTable(qe.From, qe.To), // From placed -> candidates for To
			bwd: newTable(qe.To, qe.From), // To placed -> candidates for From
		}
		if f.dense {
			tableOf[i].arenas = [2][]sets.Bitset{f.nextArena(f.passBits[qe.From].Count()), f.nextArena(f.passBits[qe.To].Count())}
		}
	}
	return tableOf
}

// fillTables builds each query edge's two tables. For query edge (u, v)
// the dense rows are fwd[r] = Out[r] ∩ pass(v) for r ∈ pass(u) and
// bwd[r] = In[r] ∩ pass(u) for r ∈ pass(v) — a candidate failing its own
// node filter can never appear in a mapping — and a row that intersects
// to nothing stays nil. Out and In are a mask-adjacency, filled through
// the endpoint arrays from the edge constraint's satisfied-mask over the
// host edges: an admitted host arc rs→rt sets rt in Out[rs] and rs in
// In[rt]. On an undirected host one evaluation admits both arcs of an
// edge, so In is Out, unless the program tells them apart through
// rSource/rTarget; only then is the mask computed a second time with the
// endpoints swapped. With no edge constraint every host edge is admitted
// and all query edges share one Out and In. Sparse rows take the same
// arcs one by one.
//
// The fill is sharded per query edge across Options.Workers goroutines.
// Each edge owns its two tables and — handed out serially beforehand —
// their row arenas, and each worker its scratch, so workers share nothing
// mutable beyond the stats counters.
//
//netembedvet:allow stoppoll the worker `for {}` drains a bounded atomic cursor over query edges; filter build is O(|Eq|·|Er|) work measured by Stats.FilterBuild, not an unbounded search
func (f *Filters) fillTables(opt *Options, idx *index.Index, cols *index.Columns, passBits []*sets.Bitset) {
	p := f.p
	prog := p.EdgeConstraint
	nEdges, nHostEdges := p.Query.NumEdges(), p.Host.NumEdges()
	tableOf := f.newArcTables()

	indexed := idx != nil && prog == nil
	var from, to []graph.NodeID
	if !indexed {
		from, to = cols.Endpoints()
	}
	oriented := !p.Host.Directed() && prog != nil && (prog.Uses(expr.ObjRSource) || prog.Uses(expr.ObjRTarget))
	symmetric := !p.Host.Directed() && !oriented
	// No edge constraint, no index: every query edge reads all host arcs.
	var all [2][]sets.Bitset
	if f.dense && prog == nil && !indexed {
		all[0], all[1] = f.evalScratch[0].adjacency(f.nr, symmetric)
		addArcs(nil, from, to, all[0], all[1])
	}
	f.pairsEval.Store(0)
	f.entries.Store(0)
	fillEdge := func(i int, ws *evalScratch) {
		qe := p.Query.Edge(graph.EdgeID(i))
		passFrom, passTo := passBits[qe.From], passBits[qe.To]
		b := expr.EdgeBatch{
			VEdge:   qe.Attrs,
			VSource: p.Query.Node(qe.From).Attrs,
			VTarget: p.Query.Node(qe.To).Attrs,
			Host:    cols,
			RSource: from, RTarget: to,
		}
		// admitted hands visit the host edges admitted as arcs rs[j]→rt[j]
		// (a nil mask admits every edge): the stored orientation, then —
		// for an oriented program — the swapped one.
		admitted := func(visit func(mask *sets.Bitset, rs, rt []graph.NodeID)) {
			if prog == nil {
				visit(nil, from, to)
				return
			}
			ws.mask = sets.ReuseBitset(ws.mask, nHostEdges)
			prog.EvalEdgeBatch(&b, &ws.expr, ws.mask)
			f.pairsEval.Add(int64(nHostEdges))
			visit(ws.mask, from, to)
			if oriented {
				b.RSource, b.RTarget = to, from
				prog.EvalEdgeBatch(&b, &ws.expr, ws.mask)
				f.pairsEval.Add(int64(nHostEdges))
				visit(ws.mask, to, from)
			}
		}

		if f.dense {
			var out, in func(graph.NodeID) *sets.Bitset
			if indexed {
				out, in = idx.Neighbors, idx.InNeighbors
			} else {
				outRows, inRows := all[0], all[1]
				if prog != nil {
					outRows, inRows = ws.adjacency(f.nr, symmetric)
					admitted(func(mask *sets.Bitset, rs, rt []graph.NodeID) { addArcs(mask, rs, rt, outRows, inRows) })
				}
				out = func(r graph.NodeID) *sets.Bitset { return &outRows[r] }
				in = func(r graph.NodeID) *sets.Bitset { return &inRows[r] }
			}
			f.entries.Add(fillRows(f.tablesB[tableOf[i].fwd], tableOf[i].arenas[0], passFrom, passTo, out) +
				fillRows(f.tablesB[tableOf[i].bwd], tableOf[i].arenas[1], passTo, passFrom, in))
			return
		}

		fwd, bwd := f.tables[tableOf[i].fwd], f.tables[tableOf[i].bwd]
		var localEntries int64
		admit := func(rs, rt graph.NodeID) {
			if passFrom.Has(rs) && passTo.Has(rt) {
				fwd[rs] = append(fwd[rs], rt)
				bwd[rt] = append(bwd[rt], rs)
				localEntries += 2
			}
		}
		admitted(func(mask *sets.Bitset, rs, rt []graph.NodeID) {
			for j := range rs {
				if mask == nil || mask.Has(int32(j)) {
					admit(rs[j], rt[j])
					if symmetric {
						admit(rt[j], rs[j])
					}
				}
			}
		})
		for r := 0; r < f.nr; r++ {
			fwd[r] = sets.FromUnsorted(fwd[r])
			bwd[r] = sets.FromUnsorted(bwd[r])
		}
		f.entries.Add(localEntries)
	}

	if workers := opt.Workers; workers > 1 && nEdges > 1 {
		var wg sync.WaitGroup
		next := atomic.Int64{}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ws *evalScratch) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= nEdges {
						return
					}
					fillEdge(i, ws)
				}
			}(&f.evalScratch[w])
		}
		wg.Wait()
	} else {
		for i := 0; i < nEdges; i++ {
			fillEdge(i, &f.evalScratch[0])
		}
	}
	f.stats.EdgePairsEval, f.stats.FilterEntries = f.pairsEval.Load(), f.entries.Load()
}

// adjacency returns ws's mask-adjacency over nr hosts, emptied: its Out
// and In rows, one set of rows when symmetric.
func (ws *evalScratch) adjacency(nr int, symmetric bool) (out, in []sets.Bitset) {
	adj := &ws.adj
	adj[0].rows, adj[0].backing = sets.ReuseBitsets(adj[0].rows, adj[0].backing, nr, nr)
	if symmetric {
		return adj[0].rows, adj[0].rows
	}
	adj[1].rows, adj[1].backing = sets.ReuseBitsets(adj[1].rows, adj[1].backing, nr, nr)
	return adj[0].rows, adj[1].rows
}

// addArcs adds the host arcs rs[j]→rt[j] of the edges in mask (every edge
// when mask is nil) to the mask-adjacency rows: two bit sets per arc.
func addArcs(mask *sets.Bitset, rs, rt []graph.NodeID, out, in []sets.Bitset) {
	if mask == nil {
		for j := range rs {
			out[rs[j]].Set(rt[j])
			in[rt[j]].Set(rs[j])
		}
		return
	}
	for w := range (len(rs) + 63) / 64 {
		for x := mask.Word(w); x != 0; x &= x - 1 {
			j := w<<6 | bits.TrailingZeros64(x)
			out[rs[j]].Set(rt[j])
			in[rt[j]].Set(rs[j])
		}
	}
}

// fillRows sets table[r] = adj(r) ∩ headPass in the arena's rows for each
// r in tailPass, leaving empty rows nil; it returns the entries stored.
func fillRows(table []*sets.Bitset, arena []sets.Bitset, tailPass, headPass *sets.Bitset, adj func(graph.NodeID) *sets.Bitset) int64 {
	var entries int64
	next := 0
	tailPass.ForEach(func(r graph.NodeID) bool {
		if n := sets.IntersectCountInto(&arena[next], adj(r), headPass); n > 0 {
			table[r] = &arena[next]
			next++
			entries += int64(n)
		}
		return true
	})
	return entries
}

// buildBase computes the per-node base candidate sets (formula (1)) on the
// sorted-slice representation.
func (f *Filters) buildBase(loose bool) {
	f.base = grow(f.base, f.nq)
	var scratchA, scratchB sets.Set
	for q := 0; q < f.nq; q++ {
		qid := graph.NodeID(q)
		arcs := f.incomingArcTables(qid)
		if len(arcs) == 0 {
			// Isolated query node: only the node filter constrains it.
			f.base[q] = append(f.base[q][:0], f.nodePass[q]...)
			continue
		}
		var acc sets.Set
		for i, t := range arcs {
			// per-arc union: every host node that appears as a candidate
			// for q in any row of this arc's table.
			var u sets.Set
			for r := 0; r < f.nr; r++ {
				if len(f.tables[t][r]) > 0 {
					scratchA = sets.UnionInto(scratchA[:0], u, f.tables[t][r])
					u, scratchA = scratchA, u
				}
			}
			if i == 0 {
				acc = sets.Clone(u)
				continue
			}
			if loose {
				scratchB = sets.UnionInto(scratchB[:0], acc, u)
			} else {
				scratchB = sets.IntersectInto(scratchB[:0], acc, u)
			}
			acc, scratchB = scratchB, acc
		}
		f.base[q] = append(f.base[q][:0], acc...)
	}
}

// buildBaseDense is buildBase on bitset rows: the per-arc unions are
// word-wise ORs and the cross-arc combination one AND/OR per arc.
func (f *Filters) buildBaseDense(loose bool) {
	f.base = grow(f.base, f.nq)
	f.baseB = grow(f.baseB, f.nq)
	u := sets.ReuseBitset(f.unionBuf, f.nr)
	f.unionBuf = u
	for q := 0; q < f.nq; q++ {
		qid := graph.NodeID(q)
		arcs := f.incomingArcTables(qid)
		acc := sets.ReuseBitset(f.baseB[q], f.nr)
		f.baseB[q] = acc
		if len(arcs) == 0 {
			acc.AddSet(f.nodePass[q])
			f.base[q] = append(f.base[q][:0], f.nodePass[q]...)
			continue
		}
		for i, t := range arcs {
			u.Reset()
			for r := 0; r < f.nr; r++ {
				if row := f.tablesB[t][r]; row != nil {
					u.UnionWith(row)
				}
			}
			switch {
			case i == 0:
				acc.CopyFrom(u)
			case loose:
				acc.UnionWith(u)
			default:
				acc.IntersectWith(u)
			}
		}
		f.base[q] = acc.AppendTo(f.base[q][:0])
	}
}

// incomingArcTables returns the table indices of every arc whose head is
// q, i.e. the filters constraining q's candidates once a neighbor is
// placed.
func (f *Filters) incomingArcTables(q graph.NodeID) []int32 {
	nTables := len(f.tables) + len(f.tablesB)
	if f.arcStamp == nil {
		f.arcStamp = newTableStamp(nTables)
	} else {
		f.arcStamp.reset(nTables)
	}
	f.arcStamp.next()
	out := f.arcsBuf[:0]
	appendTables := func(u graph.NodeID) {
		for _, t := range f.arcTables[arcKey(u, q)] {
			if f.arcStamp.mark(t) {
				out = append(out, t)
			}
		}
	}
	for _, a := range f.p.Query.Arcs(q) {
		appendTables(a.To)
	}
	if f.p.Query.Directed() {
		for _, a := range f.p.Query.InArcs(q) {
			appendTables(a.To)
		}
	}
	f.arcsBuf = out
	return out
}

// Dense reports whether the filter tables carry the bitset representation.
func (f *Filters) Dense() bool { return f.dense }

// Base returns the base candidate set for query node q (do not modify).
func (f *Filters) Base(q graph.NodeID) sets.Set { return f.base[q] }

// CandidatesGiven returns the filter row for query node head given that
// query node tail has been placed at host node r, one sorted set per arc
// table relating the two nodes. An empty result means the pair of nodes is
// not adjacent in the query. In dense mode the rows are materialized as
// fresh sorted slices.
func (f *Filters) CandidatesGiven(tail, head graph.NodeID, r graph.NodeID) []sets.Set {
	ts := f.arcTables[arcKey(tail, head)]
	if len(ts) == 0 {
		return nil
	}
	rows := make([]sets.Set, len(ts))
	for i, t := range ts {
		if f.dense {
			if row := f.tablesB[t][r]; row != nil {
				rows[i] = row.AppendTo(nil)
			}
		} else {
			rows[i] = f.tables[t][r]
		}
	}
	return rows
}

// Stats returns the filter-construction counters.
func (f *Filters) Stats() Stats { return f.stats }
