package core

import (
	"math"
	"strconv"
	"time"

	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// This file is the indexed path-mode searcher: PathEmbed rebuilt on the
// engine stack the one-to-one algorithms already ride. A chronological
// scan would pay an exhaustive simple-path DFS for every (candidate,
// assigned neighbor) pair it probes, and scan every host node at every
// depth. This engine removes that work in three layers:
//
//   - Reachability-pruned domains. A hop-bounded reachability oracle
//     (per-k adj^k bitset rows, served by internal/index and cached
//     across runs when PathOptions.Index is set) replaces the 1-hop
//     filter rows of the FC engine: assigning a query node AND-prunes
//     the live domains of its unassigned query neighbors with the
//     ≤MaxHops reachability row of the chosen host — one word-parallel
//     op per neighbor, wiping out provably unextendable assignments
//     before descending. Domains ride the same trail machinery
//     (domains/fcTrailEntry) LNS and Consolidate share with fc.go.
//
//   - Optimistic metric bounds. For additive metrics with an upper
//     window (the delay case), a lazily-computed single-source shortest
//     distance — edge costs clamped at ≥ 0, so it lower-bounds every
//     path's true composed value regardless of hop limits — rejects a
//     witness probe whose best possible composed value already violates
//     the window, without starting the DFS.
//
//   - Witness memoization. Within a run, witness lookups are memoized
//     per (query-edge window class, src, dst): query edges carrying
//     identical window attributes share one cache line, so a ring query
//     with uniform windows pays each host pair's DFS once, not once per
//     edge and once per enumeration visit.
//
// Every pruning layer is a necessary condition on witness existence, so
// the engine enumerates exactly the plain scan's solution sequence:
// injective maps in pathOrder's lexicographic order, each query edge
// carrying the first witness PathsWithinStop yields between its
// endpoints' images — pinned against a test-only oracle in
// pathfc_test.go.

// pathWitKey addresses one memoized witness lookup: the query edge's
// window class plus the host pair.
type pathWitKey struct {
	class    int32
	src, dst graph.NodeID
}

// pathWitVal is a memoized witness answer. ok=false records a proven
// absence (never a stop-truncated probe, which is not memoized).
type pathWitVal struct {
	path graph.Path
	ok   bool
}

// pathChosen pairs a query edge with the witness found for it while a
// candidate is probed.
type pathChosen struct {
	edge graph.EdgeID
	path graph.Path
}

// pathFC is the state of one indexed path-mode search.
type pathFC struct {
	p   *Problem
	opt PathOptions

	nq, nr int
	order  []graph.NodeID

	// reachF[r] = hosts with a ≤MaxHops path from r; reachR[r] = hosts
	// with a ≤MaxHops path to r (aliases reachF on undirected hosts).
	reachF, reachR []sets.Bitset

	ds       *domains
	used     *sets.Bitset
	candBits *sets.Bitset
	scratch  [][]int32

	assign  Mapping
	paths   map[graph.EdgeID]graph.Path
	classOf []int32
	memo    map[pathWitKey]pathWitVal
	bounds  *pathBounds

	stopClock
	stopped bool
	res     *PathResult
}

func pathEmbedFC(p *Problem, opt PathOptions) *PathResult {
	start := time.Now()
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	s := &pathFC{
		p:        p,
		opt:      opt,
		nq:       nq,
		nr:       nr,
		order:    pathOrder(p.Query),
		used:     sets.NewBitset(nr),
		candBits: sets.NewBitset(nr),
		assign:   make(Mapping, nq),
		paths:    make(map[graph.EdgeID]graph.Path, p.Query.NumEdges()),
		classOf:  pathWindowClasses(p.Query, opt.Metrics),
		memo:     make(map[pathWitKey]pathWitVal),
		bounds:   newPathBounds(p.Host, opt.Metrics),
		scratch:  make([][]int32, nq),
		res:      &PathResult{},
	}
	s.arm(start, opt.Timeout, opt.Stop)
	for i := range s.assign {
		s.assign[i] = -1
	}

	// Reachability rows: served from the index snapshot when it was built
	// over this very host (cached there across runs and invalidated by
	// structural deltas), computed per run otherwise.
	if ix := opt.Index; ix != nil && ix.ColumnsFor(p.Host) != nil {
		s.reachF = ix.ReachWithin(opt.MaxHops)
		if p.Host.Directed() {
			s.reachR = ix.ReachWithinRev(opt.MaxHops)
		} else {
			s.reachR = s.reachF
		}
	} else {
		s.reachF, s.reachR = index.BuildReach(p.Host, opt.MaxHops)
	}

	// Base domains: the node constraint is the only sound per-node
	// filter in path mode — the degree filter of the one-to-one engines
	// does not apply, since several witness paths may leave a host node
	// through the same hosting edge.
	s.ds = newDomains(nr, nq)
	for q := 0; q < nq; q++ {
		cnt := int32(0)
		for r := 0; r < nr; r++ {
			if p.nodeOK(graph.NodeID(q), graph.NodeID(r)) {
				s.ds.dom[q].Set(int32(r))
				cnt++
			}
		}
		s.ds.count[q] = cnt
	}

	s.rec(0)

	s.res.Exhausted = !s.timedOut && !s.stopped
	s.res.Status = classify(s.res.Exhausted, len(s.res.Solutions))
	s.res.Elapsed = time.Since(start)
	s.res.Stats.Elapsed = s.res.Elapsed
	return s.res
}

func (s *pathFC) record() {
	sol := PathSolution{Nodes: s.assign.Clone(), Paths: make(map[graph.EdgeID]graph.Path, len(s.paths))}
	for k, v := range s.paths {
		sol.Paths[k] = v
	}
	s.res.Solutions = append(s.res.Solutions, sol)
	if s.opt.MaxSolutions > 0 && len(s.res.Solutions) >= s.opt.MaxSolutions {
		s.stopped = true
	}
}

func (s *pathFC) rec(d int) {
	if s.timedOut || s.stopped {
		return
	}
	if d == s.nq {
		s.record()
		return
	}
	q := s.order[d]
	buf := s.scratch[d][:0]
	s.candBits.CopyFrom(&s.ds.dom[q])
	if s.candBits.AndNotWith(s.used) {
		buf = s.candBits.AppendTo(buf)
	}
	s.scratch[d] = buf
	for _, r32 := range buf {
		if s.checkDeadline() || s.stopped {
			return
		}
		s.res.Stats.NodesVisited++
		r := graph.NodeID(r32)
		witnesses, ok := s.witnessesFor(q, r)
		if !ok {
			continue
		}
		s.assign[q] = r
		s.used.Set(r32)
		for _, w := range witnesses {
			s.paths[w.edge] = w.path
		}
		mark, amark := s.ds.mark()
		if s.pruneFuture(q, r32) {
			s.rec(d + 1)
		} else {
			s.res.Stats.Wipeouts++
		}
		s.ds.undoTo(mark, amark)
		for _, w := range witnesses {
			delete(s.paths, w.edge)
		}
		s.used.Clear(r32)
		s.assign[q] = -1
	}
}

// witnessesFor checks that every query edge from q to an already-assigned
// neighbor has a witness when q is placed at r, collecting the witnesses.
// Each witness runs from the image of the query edge's source to the image
// of its target, whichever endpoint q is.
func (s *pathFC) witnessesFor(q, r graph.NodeID) ([]pathChosen, bool) {
	var witnesses []pathChosen
	ok := true
	visit := func(a graph.Arc, qeFromQ bool) {
		if !ok || s.assign[a.To] < 0 {
			return
		}
		rs, rt := r, s.assign[a.To]
		if !qeFromQ {
			rs, rt = s.assign[a.To], r
		}
		if path, found := s.witness(a.Edge, rs, rt); found {
			witnesses = append(witnesses, pathChosen{a.Edge, path})
		} else {
			ok = false
		}
	}
	for _, a := range s.p.Query.Arcs(q) {
		visit(a, s.p.Query.Edge(a.Edge).From == q)
	}
	if s.p.Query.Directed() {
		for _, a := range s.p.Query.InArcs(q) {
			visit(a, false)
		}
	}
	return witnesses, ok
}

// witness answers one (query edge, host pair) lookup through the pruning
// stack: reachability, memo, optimistic bounds, then — only if all three
// pass — the bounded simple-path DFS.
func (s *pathFC) witness(eid graph.EdgeID, rs, rt graph.NodeID) (graph.Path, bool) {
	if !s.reachF[rs].Has(int32(rt)) {
		s.res.Stats.ReachPrunes++
		return graph.Path{}, false
	}
	qe := s.p.Query.Edge(eid)
	key := pathWitKey{class: s.classOf[eid], src: rs, dst: rt}
	if v, hit := s.memo[key]; hit {
		s.res.Stats.WitnessHits++
		return v.path, v.ok
	}
	if !s.bounds.feasible(qe, rs, rt) {
		s.res.Stats.ReachPrunes++
		s.memo[key] = pathWitVal{} // a bound violation is a proven absence
		return graph.Path{}, false
	}

	s.res.Stats.WitnessProbes++
	var found graph.Path
	ok := false
	s.p.Host.PathsWithinStop(rs, rt, s.opt.MaxHops, s.checkDeadline, func(path graph.Path) bool {
		if !pathMetricsOK(s.p.Host, qe, path.Edges, s.opt.Metrics) {
			return true
		}
		path.Cost, _ = s.opt.Metrics[0].composeAlong(s.p.Host, path.Edges)
		found, ok = path, true
		return false // first witness suffices
	})
	if ok || !s.timedOut {
		// Positive answers are always valid; negatives only when the DFS
		// ran to completion — a stop-truncated probe proves nothing and
		// must not poison the memo.
		s.memo[key] = pathWitVal{path: found, ok: ok}
	}
	if !ok && !s.timedOut {
		// A completed-but-fruitless DFS is the signal the per-source
		// distance bound amortizes against; see pathBounds.
		s.bounds.noteFailure(rs)
	}
	return found, ok
}

// pruneFuture propagates the assignment q ↦ r into the live domains of
// q's unassigned query neighbors: a neighbor's image must lie within
// MaxHops of r in the witness direction. Reports false on a wipeout; the
// caller undoes through its trail mark.
func (s *pathFC) pruneFuture(q graph.NodeID, r int32) bool {
	prune := func(a graph.Arc, qeFromQ bool) bool {
		if s.assign[a.To] >= 0 {
			return true
		}
		row := &s.reachF[r]
		if !qeFromQ {
			row = &s.reachR[r]
		}
		s.res.Stats.PruneOps++
		return s.ds.intersect(a.To, row) != 0
	}
	for _, a := range s.p.Query.Arcs(q) {
		if !prune(a, s.p.Query.Edge(a.Edge).From == q) {
			return false
		}
	}
	if s.p.Query.Directed() {
		for _, a := range s.p.Query.InArcs(q) {
			if !prune(a, false) {
				return false
			}
		}
	}
	return true
}

// pathWindowClasses groups query edges by their window-attribute values
// under the run's metric specs: edges whose windows are byte-identical
// share a witness memo class. Attributes outside the specs cannot affect
// witness acceptance, so the grouping is sound.
func pathWindowClasses(q *graph.Graph, specs []MetricSpec) []int32 {
	classes := map[string]int32{}
	out := make([]int32, q.NumEdges())
	var b []byte
	for i := 0; i < q.NumEdges(); i++ {
		qe := q.Edge(graph.EdgeID(i))
		b = b[:0]
		for _, spec := range specs {
			if spec.LoAttr != "" {
				if lo, ok := qe.Attrs.Float(spec.LoAttr); ok {
					b = append(b, 'L')
					b = strconv.AppendUint(b, math.Float64bits(lo), 16)
				}
			}
			if spec.HiAttr != "" {
				if hi, ok := qe.Attrs.Float(spec.HiAttr); ok {
					b = append(b, 'H')
					b = strconv.AppendUint(b, math.Float64bits(hi), 16)
				}
			}
			b = append(b, ';')
		}
		key := string(b)
		id, ok := classes[key]
		if !ok {
			id = int32(len(classes))
			classes[key] = id
		}
		out[i] = id
	}
	return out
}

// pathBounds holds the lazily-computed optimistic bounds for additive
// specs with an upper window attribute (the delay case), in two tiers:
//
//   - A global floor: the cheapest clamped edge value. Any witness has
//     at least one edge, so floor > hi rejects a pair in O(1). Computed
//     once per spec on first use.
//   - Per-source shortest distances under edge costs clamped at ≥ 0. The
//     clamped Dijkstra distance lower-bounds the true composed value of
//     *every* rs→rt path (hop-limited or not), so distance > hi proves
//     no witness can satisfy the window. A Dijkstra costs about as much
//     as one fruitless DFS on a dense host, so it is computed for a
//     source only after failedBeforeBound completed DFS probes from that
//     source came back empty — sources whose probes succeed never pay
//     for it, sources in an infeasible region pay once and then answer
//     every remaining destination in O(1).
//
// Bottleneck and multiplicative rules fall through to the DFS — a
// widest-path analogue would bound them too, but additive delay is the
// workload the paper's §VIII windows describe.
type pathBounds struct {
	host  *graph.Graph
	specs []MetricSpec
	// dist[si][src] = distance vector from src for additive spec si;
	// absent entries are not yet computed. Non-additive specs (and
	// additive ones without HiAttr) keep a nil map.
	dist []map[graph.NodeID][]float64
	// floor[si] = cheapest clamped edge value for spec si; NaN until
	// computed, +Inf when no edge is usable.
	floor []float64
	// negative[si] records that some edge carries a negative value for
	// spec si. Both bound tiers clamp at zero, which is only a lower
	// bound of the true composed value when no edge is negative — with a
	// negative edge a longer path can compose *below* the clamped
	// distance, so the spec's bounds are disabled entirely and the DFS
	// decides (the oracle equivalence must hold for any attribute
	// values, sensible or not).
	negative []bool
	// failures[src] counts completed-but-fruitless DFS probes from src;
	// crossing failedBeforeBound unlocks the Dijkstra tier for it.
	failures map[graph.NodeID]int
}

// failedBeforeBound is how many fruitless DFS probes a source tolerates
// before the per-source distance bound is computed for it.
const failedBeforeBound = 2

func newPathBounds(host *graph.Graph, specs []MetricSpec) *pathBounds {
	b := &pathBounds{
		host:     host,
		specs:    specs,
		dist:     make([]map[graph.NodeID][]float64, len(specs)),
		floor:    make([]float64, len(specs)),
		negative: make([]bool, len(specs)),
		failures: make(map[graph.NodeID]int),
	}
	for i, spec := range specs {
		b.floor[i] = math.NaN()
		if spec.Rule == Additive && spec.HiAttr != "" {
			b.dist[i] = make(map[graph.NodeID][]float64)
		}
	}
	return b
}

// noteFailure records a completed DFS probe from src that found nothing.
func (b *pathBounds) noteFailure(src graph.NodeID) { b.failures[src]++ }

// feasible reports whether some rs→rt path could still satisfy every
// bounded spec's window for query edge qe. False is a proof of
// infeasibility; true just means the DFS must decide.
func (b *pathBounds) feasible(qe *graph.Edge, rs, rt graph.NodeID) bool {
	for i := range b.specs {
		if b.dist[i] == nil {
			continue
		}
		hi, ok := qe.Attrs.Float(b.specs[i].HiAttr)
		if !ok {
			continue
		}
		floor := b.edgeFloor(i)
		if b.negative[i] {
			continue // clamped bounds are unsound here; the DFS decides
		}
		if floor > hi {
			return false
		}
		if d := b.from(i, rs); d != nil && d[rt] > hi {
			return false
		}
	}
	return true
}

// edgeFloor returns (computing on first use) the cheapest clamped edge
// value for spec si, recording along the way whether any edge is
// negative (which disables the spec's bounds — see the negative field).
func (b *pathBounds) edgeFloor(si int) float64 {
	if !math.IsNaN(b.floor[si]) {
		return b.floor[si]
	}
	spec := b.specs[si]
	floor := math.Inf(1)
	for i := 0; i < b.host.NumEdges(); i++ {
		v, ok := b.host.Edge(graph.EdgeID(i)).Attrs.Float(spec.Attr)
		if !ok {
			if spec.MissingFails {
				continue
			}
			v = spec.MissingEdge
		}
		if v < 0 {
			b.negative[si] = true
			v = 0
		}
		if v < floor {
			floor = v
		}
	}
	b.floor[si] = floor
	return floor
}

// from returns the clamped shortest-distance vector from src for spec
// si, computing it only once src has crossed the failure threshold; nil
// means the bound is not (yet) worth its construction cost.
func (b *pathBounds) from(si int, src graph.NodeID) []float64 {
	if d, ok := b.dist[si][src]; ok {
		return d
	}
	if b.failures[src] < failedBeforeBound {
		return nil
	}
	// graph.Distances clamps negative costs itself, but a spec with any
	// negative edge never reaches here (see the negative field); +Inf
	// marks unusable edges (missing attribute with MissingFails).
	spec := b.specs[si]
	d := b.host.Distances(src, func(e graph.EdgeID) float64 {
		v, ok := b.host.Edge(e).Attrs.Float(spec.Attr)
		if !ok {
			if spec.MissingFails {
				return math.Inf(1)
			}
			v = spec.MissingEdge
		}
		return v
	})
	b.dist[si][src] = d
	return d
}
