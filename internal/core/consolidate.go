package core

import (
	"fmt"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/sets"
)

// This file implements the second many-to-one extension sketched in §VIII
// ("allow many-to-one mappings between virtual and real nodes"): node
// consolidation. Several query nodes may share one hosting node provided
// the host's capacity covers their summed demand, the way one physical
// testbed machine hosts several virtual nodes of an experiment. A query
// edge whose endpoints are co-located rides the host's internal fabric —
// a synthetic loopback link — instead of a real network edge.
//
// The companion extension, mapping one query edge onto a multi-hop host
// path, lives in pathmap.go; the two compose through the service layer.

// ConsolidateOptions tunes the many-to-one node-sharing search.
type ConsolidateOptions struct {
	// CapacityAttr names the hosting-node attribute holding its capacity
	// (default "capacity"). Hosts missing the attribute get
	// DefaultCapacity.
	CapacityAttr string
	// DemandAttr names the query-node attribute holding its resource
	// demand (default "demand"). Query nodes missing it demand 1.
	DemandAttr string
	// DefaultCapacity applies to hosts without the capacity attribute
	// (default 1, which keeps unannotated hosts injective).
	DefaultCapacity float64
	// Loopback is the attribute bag a query edge is checked against when
	// both endpoints share a host. The default models an intra-machine
	// link: minDelay/avgDelay/maxDelay 0 and loopback=true, so delay
	// upper bounds pass and minimum-delay demands fail, and constraints
	// can opt out entirely with "!has(rEdge.loopback)".
	Loopback graph.Attrs
}

func (c ConsolidateOptions) withDefaults() ConsolidateOptions {
	if c.CapacityAttr == "" {
		c.CapacityAttr = "capacity"
	}
	if c.DemandAttr == "" {
		c.DemandAttr = "demand"
	}
	if c.DefaultCapacity <= 0 {
		c.DefaultCapacity = 1
	}
	if c.Loopback == nil {
		c.Loopback = graph.Attrs{}.
			SetNum("minDelay", 0).
			SetNum("avgDelay", 0).
			SetNum("maxDelay", 0).
			SetBool("loopback", true)
	}
	return c
}

// Consolidate searches for many-to-one embeddings of p.Query into p.Host:
// node mappings that satisfy the node and edge constraints where hosts
// may be reused up to their capacity. With every capacity at 1 it
// degenerates to the injective problem and returns exactly the ECF
// solution set. The search is complete and correct in the paper's sense:
// every feasible consolidated mapping is enumerated (subject to
// Options.Timeout/MaxSolutions), and every reported mapping verifies.
func Consolidate(p *Problem, opt Options, copt ConsolidateOptions) *Result {
	copt = copt.withDefaults()
	start := time.Now()
	s := &consSearcher{
		p:       p,
		opt:     opt,
		copt:    copt,
		started: start,
	}
	s.init()
	if s.feasibleSetup {
		s.search(0)
	}
	exhausted := !s.timedOut && !s.stopped
	res := &Result{
		Solutions: s.solutions,
		Exhausted: exhausted,
		Status:    classify(exhausted, s.nSol),
		Stats:     s.stats,
	}
	res.Stats.Elapsed = time.Since(start)
	return res
}

// consSearcher is the DFS state for Consolidate. Unlike the injective
// searcher it tracks remaining host capacity instead of a used-bit set,
// and checks edges directly against the host adjacency (co-location makes
// the precomputed filter tables unsound: they only know about real edges).
type consSearcher struct {
	p    *Problem
	opt  Options
	copt ConsolidateOptions

	order     []graph.NodeID   // query nodes in connected ascending order
	preNbrs   [][]graph.NodeID // earlier-placed query neighbors per depth
	base      []sets.Set       // node-constraint-feasible hosts per query node
	demand    []float64
	remaining []float64
	minDemand float64

	// saturated marks hosts whose remaining capacity has dropped below
	// the smallest query demand: no further node can land there, so the
	// candidate materialization subtracts them word-wise instead of
	// probing remaining[] per host.
	saturated *sets.Bitset
	candBits  *sets.Bitset // scratch for materializing candidates
	scratch   [][]int32    // per-depth candidate buffers

	// Forward-checking state: live domains per query node, pruned when
	// an earlier neighbor is placed — a later neighbor must land on the
	// placed host's adjacency or co-locate on the host itself — with
	// trail-backed undo and an early wipeout check. Edge constraints stay
	// lazily evaluated per candidate, so the pruning is topology-only and
	// provably solution-preserving.
	ds       *domains
	adj      *hostAdj         // host adjacency ∪ self (co-location)
	postNbrs [][]graph.NodeID // later-placed query neighbors per depth

	assign        Mapping
	feasibleSetup bool

	stopClock
	stopped bool

	started   time.Time
	solutions []Mapping
	nSol      int
	stats     Stats
}

func (s *consSearcher) init() {
	q, h := s.p.Query, s.p.Host
	nq, nh := q.NumNodes(), h.NumNodes()

	s.demand = make([]float64, nq)
	for i := 0; i < nq; i++ {
		d, ok := q.Node(graph.NodeID(i)).Attrs.Float(s.copt.DemandAttr)
		if !ok || d <= 0 {
			d = 1
		}
		s.demand[i] = d
	}
	s.remaining = make([]float64, nh)
	for r := 0; r < nh; r++ {
		c, ok := h.Node(graph.NodeID(r)).Attrs.Float(s.copt.CapacityAttr)
		if !ok || c <= 0 {
			c = s.copt.DefaultCapacity
		}
		s.remaining[r] = c
	}

	if nq > 0 {
		s.minDemand = s.demand[0]
		for _, d := range s.demand[1:] {
			if d < s.minDemand {
				s.minDemand = d
			}
		}
	}

	// Base candidates: the node constraint plus the capacity sanity bound
	// (a host below the node's own demand can never help).
	s.base = make([]sets.Set, nq)
	for i := 0; i < nq; i++ {
		for r := 0; r < nh; r++ {
			if s.remaining[r] >= s.demand[i] && s.p.nodeOK(graph.NodeID(i), graph.NodeID(r)) {
				s.base[i] = append(s.base[i], graph.NodeID(r))
			}
		}
		if len(s.base[i]) == 0 {
			return // some query node has no host at all: definitive no-match
		}
	}
	s.saturated = sets.NewBitset(nh)
	for r := 0; r < nh; r++ {
		if s.remaining[r] < s.minDemand {
			s.saturated.Set(graph.NodeID(r))
		}
	}
	s.candBits = sets.NewBitset(nh)
	s.scratch = make([][]int32, nq)

	s.order = consOrder(q, s.base)
	pos := make([]int, nq)
	for d, n := range s.order {
		pos[n] = d
	}
	s.preNbrs = make([][]graph.NodeID, nq)
	s.postNbrs = make([][]graph.NodeID, nq)
	for d, n := range s.order {
		seen := map[graph.NodeID]bool{}
		add := func(nbr graph.NodeID) {
			if seen[nbr] || pos[nbr] == d {
				return
			}
			seen[nbr] = true
			if pos[nbr] < d {
				s.preNbrs[d] = append(s.preNbrs[d], nbr)
			} else {
				s.postNbrs[d] = append(s.postNbrs[d], nbr)
			}
		}
		for _, a := range q.Arcs(n) {
			add(a.To)
		}
		if q.Directed() {
			for _, a := range q.InArcs(n) {
				add(a.To)
			}
		}
	}

	s.ds = newDomains(nh, nq)
	for i := 0; i < nq; i++ {
		s.ds.dom[i].AddSet(s.base[i])
		s.ds.count[i] = int32(len(s.base[i]))
	}
	s.adj = newHostAdj(h, true)

	s.assign = make(Mapping, nq)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.arm(s.started, s.opt.Timeout, s.opt.Stop)
	s.feasibleSetup = true
}

// consOrder is the consolidation analogue of connectedAscendingOrder:
// seed with the fewest-candidates node, then grow along query edges.
func consOrder(q *graph.Graph, base []sets.Set) []graph.NodeID {
	nq := q.NumNodes()
	picked := make([]bool, nq)
	prefixEdges := make([]int, nq)
	order := make([]graph.NodeID, 0, nq)

	better := func(i, best graph.NodeID) bool {
		if best < 0 {
			return true
		}
		ci, cb := prefixEdges[i] > 0, prefixEdges[best] > 0
		if ci != cb {
			return ci
		}
		if ci && prefixEdges[i] != prefixEdges[best] {
			return prefixEdges[i] > prefixEdges[best]
		}
		if len(base[i]) != len(base[best]) {
			return len(base[i]) < len(base[best])
		}
		return q.Degree(i) > q.Degree(best)
	}

	for len(order) < nq {
		best := graph.NodeID(-1)
		for i := graph.NodeID(0); int(i) < nq; i++ {
			if !picked[i] && better(i, best) {
				best = i
			}
		}
		picked[best] = true
		order = append(order, best)
		for _, a := range q.Arcs(best) {
			prefixEdges[a.To]++
		}
		if q.Directed() {
			for _, a := range q.InArcs(best) {
				prefixEdges[a.To]++
			}
		}
	}
	return order
}

// loopbackOK checks the edge constraint for a query edge whose endpoints
// are co-located on host r, binding the synthetic loopback attribute bag
// as the hosting edge.
func (s *consSearcher) loopbackOK(qe *graph.Edge, r graph.NodeID) bool {
	if s.p.EdgeConstraint == nil {
		return true
	}
	s.stats.ConstraintChk++
	b := expr.EdgeBinding{
		VEdge:   qe.Attrs,
		REdge:   s.copt.Loopback,
		VSource: s.p.Query.Node(qe.From).Attrs,
		VTarget: s.p.Query.Node(qe.To).Attrs,
		RSource: s.p.Host.Node(r).Attrs,
		RTarget: s.p.Host.Node(r).Attrs,
	}
	return s.p.EdgeConstraint.EvalEdge(&b)
}

// edgeToPlaced checks the query edge(s) between node (tentatively placed
// on r) and the earlier-placed neighbor nbr. Constraint bindings follow
// the stored edge's own From/To orientation, exactly like Verify.
func (s *consSearcher) edgeToPlaced(node, nbr, r graph.NodeID) bool {
	q := s.p.Query
	imageOf := func(n graph.NodeID) graph.NodeID {
		if n == node {
			return r
		}
		return s.assign[n]
	}
	checkEdge := func(eid graph.EdgeID) bool {
		qe := q.Edge(eid)
		rs, rt := imageOf(qe.From), imageOf(qe.To)
		if rs == rt {
			return s.loopbackOK(qe, rs)
		}
		s.stats.ConstraintChk++
		return s.p.EdgeFeasible(qe, rs, rt)
	}
	if eid, ok := q.EdgeBetween(node, nbr); ok && !checkEdge(eid) {
		return false
	}
	if q.Directed() {
		if eid, ok := q.EdgeBetween(nbr, node); ok && !checkEdge(eid) {
			return false
		}
	}
	return true
}

func (s *consSearcher) search(d int) {
	if s.timedOut || s.stopped {
		return
	}
	if d == len(s.order) {
		s.record()
		return
	}
	node := s.order[d]
	// Materialize this depth's candidates: the node's live domain minus
	// saturated hosts, ascending, with packed hosts pruned word-wise up
	// front.
	buf := s.scratch[d][:0]
	s.candBits.CopyFrom(&s.ds.dom[node])
	if s.candBits.AndNotWith(s.saturated) {
		buf = s.candBits.AppendTo(buf)
	}
	s.scratch[d] = buf
	found := false
	for _, r := range buf {
		if s.checkDeadline() || s.stopped {
			return
		}
		if s.remaining[r] < s.demand[node] {
			continue
		}
		ok := true
		for _, nbr := range s.preNbrs[d] {
			if !s.edgeToPlaced(node, nbr, r) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		found = true
		s.stats.NodesVisited++
		mark, amark := s.ds.mark()
		if !s.fcPrune(d, r) {
			// A later neighbor lost its last plausible host: reject
			// before descending.
			s.ds.undoTo(mark, amark)
			continue
		}
		s.assign[node] = r
		s.remaining[r] -= s.demand[node]
		if s.remaining[r] < s.minDemand {
			s.saturated.Set(r)
		}
		s.search(d + 1)
		s.remaining[r] += s.demand[node]
		if s.remaining[r] >= s.minDemand {
			s.saturated.Clear(r)
		}
		s.assign[node] = -1
		s.ds.undoTo(mark, amark)
	}
	if !found {
		s.stats.Backtracks++
	}
}

// fcPrune forward-checks placing the depth-d node on host r: every
// later-placed query neighbor must map into r's adjacency or co-locate
// on r itself. Reports false on wipeout; the caller undoes via its mark.
func (s *consSearcher) fcPrune(d int, r graph.NodeID) bool {
	if len(s.postNbrs[d]) == 0 {
		return true
	}
	row := s.adj.row(r)
	for _, nbr := range s.postNbrs[d] {
		s.stats.PruneOps++
		if s.ds.intersect(nbr, row) == 0 {
			s.stats.Wipeouts++
			s.stats.WipeoutDepthSum += int64(d)
			return false
		}
	}
	return true
}

func (s *consSearcher) record() {
	if s.nSol == 0 {
		s.stats.TimeToFirst = time.Since(s.started)
	}
	s.nSol++
	if s.opt.OnSolution != nil {
		if !s.opt.OnSolution(s.assign) {
			s.stopped = true
		}
	} else {
		s.solutions = append(s.solutions, s.assign.Clone())
	}
	if s.opt.MaxSolutions > 0 && s.nSol >= s.opt.MaxSolutions {
		s.stopped = true
	}
}

// VerifyConsolidated independently checks a many-to-one mapping: it must
// be complete, pack demands within every host's capacity, satisfy the
// node constraint pointwise, and satisfy the edge constraint on every
// query edge — against the real host edge when the endpoints are apart,
// against the synthetic loopback when they share a host.
func (p *Problem) VerifyConsolidated(m Mapping, copt ConsolidateOptions) error {
	copt = copt.withDefaults()
	nq := p.Query.NumNodes()
	if len(m) != nq {
		return fmt.Errorf("core: mapping has %d entries, query has %d nodes", len(m), nq)
	}
	load := make(map[graph.NodeID]float64)
	for q, r := range m {
		if r < 0 || int(r) >= p.Host.NumNodes() {
			return fmt.Errorf("core: query node %d mapped to invalid host node %d", q, r)
		}
		if !p.nodeOK(graph.NodeID(q), r) {
			return fmt.Errorf("core: node constraint rejects %d -> %d", q, r)
		}
		d, ok := p.Query.Node(graph.NodeID(q)).Attrs.Float(copt.DemandAttr)
		if !ok || d <= 0 {
			d = 1
		}
		load[r] += d
	}
	for r, used := range load {
		c, ok := p.Host.Node(r).Attrs.Float(copt.CapacityAttr)
		if !ok || c <= 0 {
			c = copt.DefaultCapacity
		}
		if used > c {
			return fmt.Errorf("core: host %d overloaded: %.3f demand on %.3f capacity", r, used, c)
		}
	}
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		rs, rt := m[qe.From], m[qe.To]
		if rs == rt {
			if p.EdgeConstraint == nil {
				continue
			}
			b := expr.EdgeBinding{
				VEdge:   qe.Attrs,
				REdge:   copt.Loopback,
				VSource: p.Query.Node(qe.From).Attrs,
				VTarget: p.Query.Node(qe.To).Attrs,
				RSource: p.Host.Node(rs).Attrs,
				RTarget: p.Host.Node(rt).Attrs,
			}
			if !p.EdgeConstraint.EvalEdge(&b) {
				return fmt.Errorf("core: loopback constraint rejects query edge %d on host %d", i, rs)
			}
			continue
		}
		reID, ok := p.Host.EdgeBetween(rs, rt)
		if !ok {
			return fmt.Errorf("core: query edge %d (%d-%d) has no host edge %d-%d", i, qe.From, qe.To, rs, rt)
		}
		if !p.edgeOK(qe, p.Host.Edge(reID), rs, rt) {
			return fmt.Errorf("core: edge constraint rejects query edge %d on host edge %d", i, reID)
		}
	}
	return nil
}
