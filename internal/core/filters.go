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
// Rows are dense bitsets over the host universe (sets.Bitset), so the
// search prunes a domain with one word-parallel AND per row. The base
// candidate sets are materialized both as sorted slices (the ordering
// heuristics and root sharding read them) and as bitsets (the domains a
// search starts from).
//
// A row is not intersected with its head's node filter: it aliases
// the admitted host adjacency row itself (see fillTables). Every domain a
// search prunes starts as a base set, which lies inside its node's pass,
// and only shrinks, so ANDing or AND-NOTing the aliased row into it reads
// exactly what the intersected row would. CandidatesGiven, which callers
// read outside a search, returns the intersected row.
//
// Base candidate sets realize formula (1): by default tightened to the
// intersection of per-neighbor unions (still a superset of any feasible
// root assignment, so completeness is preserved); Options.LooseRoot keeps
// the paper's literal union.
type Filters struct {
	p  *Problem
	nq int
	nr int

	// arcTables[key(u,v)] lists table indices applying when u is placed
	// and v's candidates are needed (two entries only if the digraph has
	// both (u,v) and (v,u) edges).
	arcTables map[uint64][]int32
	// tablesB[t][r] = r's row of the arc's admitted host adjacency, for r
	// in the tail's pass, shared read-only. A nil row is empty.
	tablesB [][]*sets.Bitset

	// base[q] = candidate host nodes for query node q before any
	// neighbor is placed, always as a sorted slice.
	base []sets.Set
	// baseB mirrors base as bitsets.
	baseB []*sets.Bitset

	stats Stats
	// The fill workers' share of stats.EdgePairsEval.
	pairsEval atomic.Int64

	// Pool-recycled scratch (see pool.go): per-node admissibility
	// bitsets, positional arenas for the mask-adjacencies the rows alias,
	// the per-table unions of the fill (unions.rows[t] = the hosts table
	// t admits for its head), the tableOf buffer, the
	// incoming-arc dedup stamp with its output buffer, one constraint
	// evaluation scratch per fill worker, and the throw-away host columns
	// of builds the index's column cache cannot serve.
	passBits    []*sets.Bitset
	arenas      []rowArena
	arenaNext   int
	unions      rowArena
	tableOf     []edgeTables
	arcStamp    *tableStamp
	arcsBuf     []int32
	evalScratch []EvalScratch
	scratchCols *index.Columns
}

// EvalScratch is one evaluator's reusable state: the batch evaluator's
// registers and the satisfied-mask it fills (over host edges for an edge
// constraint, host nodes for a node constraint). The zero value is ready;
// it is not safe for concurrent use.
type EvalScratch struct {
	expr expr.Scratch
	mask *sets.Bitset
}

func arcKey(u, v graph.NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// BuildFilters is the first stage of ECF/RWB: it decides every (query
// node, host node) and (query edge, host edge) pairing and assembles the
// filter tables and base candidate sets.
//
// Constraints are evaluated in bulk, never pair by pair: per query
// element, one batch evaluation of the program over all host elements
// (expr.EvalNodeBatch / EvalEdgeBatch) yields a satisfied-mask, read from
// typed attribute columns, or from their range indexes once the snapshot
// has armed them.
//
// An Options.Index built over p.Host itself — the identity
// Index.ColumnsFor checks, never a matching size — serves the columns
// from its snapshot cache and replaces the structural scans: node
// admissibility starts from the index's degree strata, and with no edge
// constraint the table rows are the index's adjacency bitsets. Any other
// index is ignored: the host is scanned and its columns are built into
// pooled scratch. Both paths produce identical candidate sets; the
// property tests pin them to Problem.EdgeFeasible/NodeFeasible, pair by
// pair.
func BuildFilters(p *Problem, opt *Options) *Filters {
	start := time.Now()
	f := acquireFilters()
	f.p = p
	f.nq, f.nr = p.Query.NumNodes(), p.Host.NumNodes()
	f.stats = Stats{}
	f.arenaNext = 0
	f.tablesB = f.tablesB[:0]
	if f.arcTables == nil {
		f.arcTables = make(map[uint64][]int32, 2*p.Query.NumEdges())
	} else {
		clear(f.arcTables)
	}
	idx := opt.Index
	var cols *index.Columns
	if idx != nil {
		cols = idx.ColumnsFor(p.Host)
	}
	if cols == nil {
		// No index, or one built over another graph — a stale snapshot, a
		// clone, a graph of the same size: scan the host instead, with its
		// columns in pooled scratch.
		idx = nil
		if f.scratchCols == nil {
			f.scratchCols = index.NewColumns(nil)
		}
		f.scratchCols.Reset(p.Host)
		cols = f.scratchCols
	}
	f.evalScratch = grow(f.evalScratch, max(1, opt.Workers))

	// Per-node admissibility: node constraint ∧ degree filter.
	f.passBits = grow(f.passBits, f.nq)
	passBits := f.passBits
	f.buildNodePass(opt, idx, cols, passBits)
	f.fillTables(opt, idx, cols, passBits)
	f.buildBase(opt.LooseRoot)
	f.stats.FilterBuild = time.Since(start)
	return f
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
	}
}

// edgeTables pairs the two table IDs owned by one query edge with the
// edge constraint's mask-adjacency (Out, In) its rows alias, and — when In
// is Out — Out's backing viewed as one set over arc slots: member r·64W+t
// is t in Out[r].
type edgeTables struct {
	fwd, bwd int32
	out, in  []sets.Bitset
	arcs     sets.Bitset
}

// newArcTables allocates one table per directed query arc, each table's
// union and — when ownAdj — each query edge's mask-adjacency, serially so
// table IDs, the arc index and the arenas are deterministic regardless of
// how the fill stage is parallelized.
func (f *Filters) newArcTables(ownAdj, symmetric bool) []edgeTables {
	p := f.p
	newTable := func(u, v graph.NodeID) int32 {
		id := int32(len(f.tablesB))
		f.tablesB = appendTableB(f.tablesB, f.nr)
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
		if ownAdj {
			// A symmetric arena is handed to AdmitArcs with its arc-slot
			// view, which overwrites every word: it need not be zeroed.
			var words []uint64
			tableOf[i].out, tableOf[i].in, words = f.adjacency(symmetric, symmetric)
			if symmetric {
				tableOf[i].arcs = sets.BitsetOver(words)
			}
		}
	}
	f.unions.rows, f.unions.backing = sets.ReuseBitsets(f.unions.rows, f.unions.backing, f.nr, len(f.tablesB))
	return tableOf
}

// fillTables builds each query edge's two tables. For query edge (u, v)
// a table aliases an adjacency — fwd[r] = Out[r] for r ∈ pass(u),
// bwd[r] = In[r] for r ∈ pass(v) — and its union, (∪ fwd[r]) ∩ pass(v),
// is what formula (1) combines. Out and In are the index's adjacency when
// there is no edge constraint, else the query edge's own mask-adjacency of
// the host arcs the edge constraint admits (AdmitArcs). With no edge
// constraint and no index every host edge is admitted and all query edges
// share one Out and In.
//
// The fill is sharded per query edge across Options.Workers goroutines.
// Each edge owns its two tables, their unions and — handed out serially
// beforehand — its mask-adjacency, and each worker its scratch, so
// workers share nothing mutable beyond the pairs counter.
//
//netembedvet:allow stoppoll the worker `for {}` drains a bounded atomic cursor over query edges; filter build is O(|Eq|·|Er|) work measured by Stats.FilterBuild, not an unbounded search
func (f *Filters) fillTables(opt *Options, idx *index.Index, cols *index.Columns, passBits []*sets.Bitset) {
	p := f.p
	prog := p.EdgeConstraint
	nEdges := p.Query.NumEdges()

	indexed := idx != nil && prog == nil
	var from, to []graph.NodeID
	if !indexed {
		from, to = cols.Endpoints()
	}
	directed := p.Host.Directed()
	symmetric := Symmetric(directed, prog)
	tableOf := f.newArcTables(prog != nil, symmetric)
	// No edge constraint, no index: every query edge reads all host arcs.
	var allOut, allIn []sets.Bitset
	if prog == nil && !indexed {
		allOut, allIn, _ = f.adjacency(symmetric, false)
		AdmitArcs(nil, &expr.EdgeBatch{RSource: from, RTarget: to}, directed, nil, allOut, allIn, nil)
	}
	f.pairsEval.Store(0)
	fillEdge := func(i int, ws *EvalScratch) {
		qe := p.Query.Edge(graph.EdgeID(i))
		et := &tableOf[i]
		var out, in func(graph.NodeID) *sets.Bitset
		if indexed {
			out, in = idx.Neighbors, idx.InNeighbors
		} else {
			outRows, inRows := allOut, allIn
			if prog != nil {
				outRows, inRows = et.out, et.in
				var arcs *sets.Bitset
				if symmetric {
					arcs = &et.arcs
				}
				pairs, _ := AdmitArcs(prog, &expr.EdgeBatch{
					VEdge:   qe.Attrs,
					VSource: p.Query.Node(qe.From).Attrs,
					VTarget: p.Query.Node(qe.To).Attrs,
					Host:    cols,
					RSource: from, RTarget: to,
				}, directed, ws, outRows, inRows, arcs)
				f.pairsEval.Add(int64(pairs))
			}
			out = func(r graph.NodeID) *sets.Bitset { return &outRows[r] }
			in = func(r graph.NodeID) *sets.Bitset { return &inRows[r] }
		}
		passFrom, passTo := passBits[qe.From], passBits[qe.To]
		f.aliasRows(et.fwd, passFrom, passTo, out)
		f.aliasRows(et.bwd, passTo, passFrom, in)
	}

	if workers := opt.Workers; workers > 1 && nEdges > 1 {
		var wg sync.WaitGroup
		next := atomic.Int64{}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ws *EvalScratch) {
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
	f.stats.EdgePairsEval = f.pairsEval.Load()
}

// Symmetric reports whether the edge constraint prog admits the two arcs
// of every host edge together: the host is undirected and prog does not
// tell the arcs apart through rSource or rTarget. A symmetric
// mask-adjacency's In is its Out.
func Symmetric(directed bool, prog *expr.Program) bool {
	return !directed && (prog == nil || !prog.Uses(expr.ObjRSource) && !prog.Uses(expr.ObjRTarget))
}

// AdmitArcs writes into a mask-adjacency (Out, In) the host arcs the edge
// constraint prog admits for b's query edge — every arc of every host edge
// when prog is nil — rt in out[rs] and rs in in[rt] for an admitted arc
// rs→rt, and returns the (query edge, host edge) pairs it decided and
// whether the arc-slot pass wrote the rows. b.Host holds the host's
// columns and b.RSource, b.RTarget its edges' endpoints; directed is the
// host's.
//
// When Symmetric(directed, prog), in must be out — one pass admits both
// arcs of an edge — and arcs is out's backing viewed as one set over arc
// slots (sets.BitsetOver of the backing of nr rows over nr), or nil;
// otherwise arcs is nil. Given arcs, out's prior contents do
// not matter: when b.Host keeps arc-slot range indexes (index.ArcIndexed)
// and prog is rangeable, one expr.EvalEdgeRanges pass writes every word,
// and otherwise arcs is emptied first. Everywhere else — and as the
// reference the tests hold that pass to — out and in start empty, the
// satisfied-mask over the host edges is computed and each admitted arc
// set through the endpoint arrays (addArcs), an oriented program's a
// second time with the endpoints swapped.
func AdmitArcs(prog *expr.Program, b *expr.EdgeBatch, directed bool, ws *EvalScratch, out, in []sets.Bitset, arcs *sets.Bitset) (pairs int, ranged bool) {
	m := len(b.RSource)
	if arcs != nil {
		if prog != nil && prog.EvalEdgeRanges(b, &ws.expr, arcs) {
			return m, true
		}
		arcs.Reset() // whatever a refused range pass left
	}
	if prog == nil {
		addArcs(nil, b.RSource, b.RTarget, out, in)
		return 0, false
	}
	ws.mask = sets.ReuseBitset(ws.mask, m)
	prog.EvalEdgeBatch(b, &ws.expr, ws.mask)
	addArcs(ws.mask, b.RSource, b.RTarget, out, in)
	if directed || Symmetric(directed, prog) {
		return m, false
	}
	// An undirected host edge's second arc, for a program that tells the
	// two apart.
	swapped := *b
	swapped.RSource, swapped.RTarget = b.RTarget, b.RSource
	prog.EvalEdgeBatch(&swapped, &ws.expr, ws.mask)
	addArcs(ws.mask, swapped.RSource, swapped.RTarget, out, in)
	return 2 * m, false
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

// aliasRows points table t's row r at adj(r) for each r in tailPass and
// leaves in unions.rows[t] the hosts those rows admit for the table's
// head: their union ∩ headPass.
func (f *Filters) aliasRows(t int32, tailPass, headPass *sets.Bitset, adj func(graph.NodeID) *sets.Bitset) {
	table, union := f.tablesB[t], &f.unions.rows[t]
	tailPass.ForEach(func(r graph.NodeID) bool {
		table[r] = adj(r)
		union.UnionWith(table[r])
		return true
	})
	union.IntersectWith(headPass)
}

// buildBase computes the per-node base candidate sets (formula (1)) from
// the fill's per-arc unions: the cross-arc combination is one AND/OR per
// arc.
func (f *Filters) buildBase(loose bool) {
	f.base = grow(f.base, f.nq)
	f.baseB = grow(f.baseB, f.nq)
	for q := 0; q < f.nq; q++ {
		qid := graph.NodeID(q)
		arcs := f.incomingArcTables(qid)
		acc := sets.ReuseBitset(f.baseB[q], f.nr)
		f.baseB[q] = acc
		if len(arcs) == 0 {
			// Isolated query node: only the node filter constrains it.
			acc.CopyFrom(f.passBits[q])
		}
		for i, t := range arcs {
			u := &f.unions.rows[t]
			f.stats.FilterEntries += int64(u.Count())
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
	nTables := len(f.tablesB)
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

// Base returns the base candidate set for query node q (do not modify).
func (f *Filters) Base(q graph.NodeID) sets.Set { return f.base[q] }

// CandidatesGiven returns the filter row for query node head given that
// query node tail has been placed at host node r, one sorted set per arc
// table relating the two nodes. An empty result means the pair of nodes is
// not adjacent in the query. The rows are materialized as fresh sorted
// slices, cut to head's pass: the rows a search reads through its
// domains.
func (f *Filters) CandidatesGiven(tail, head graph.NodeID, r graph.NodeID) []sets.Set {
	ts := f.arcTables[arcKey(tail, head)]
	if len(ts) == 0 {
		return nil
	}
	rows := make([]sets.Set, len(ts))
	for i, t := range ts {
		if row := f.tablesB[t][r]; row != nil {
			cut := sets.NewBitset(f.nr)
			sets.IntersectCountInto(cut, row, f.passBits[head])
			rows[i] = cut.AppendTo(nil)
		}
	}
	return rows
}

// Stats returns the filter-construction counters.
func (f *Filters) Stats() Stats { return f.stats }
