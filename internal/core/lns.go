package core

import (
	"time"

	"netembed/internal/graph"
)

// LNS is Lazy Neighborhood Search (§V-C). Instead of precomputing filter
// matrices, it maintains three sets of query nodes — Covered (already
// matched), Neighbors (adjacent to a covered node) and External — and
// grows a valid partial match one neighbor at a time, evaluating
// constraints on demand only for the edges that connect the chosen
// neighbor to the covered set. It keeps no filter tables, trading that
// space for repeated constraint evaluations.
//
// Heuristics (as in the paper): the seed vertex is the largest-degree
// query node, and each step expands the neighbor with the most links into
// the covered set, maximizing the conjunction of constraints that prunes
// candidates.
//
// The cover loop forward-checks: every uncovered query node carries a
// live domain bitset (admissible hosts ∩ host-adjacency of all covered
// neighbors ∩ unused), pruned via the shared trail when a node is
// covered and restored on backtrack, with an early wipeout check that
// rejects a cover before descending. The domains add O(|Q|·|R|/64)
// words of working memory but change neither the solution set nor the
// lazy constraint evaluation. Candidates are materialized in ascending
// host-ID order.
func LNS(p *Problem, opt Options) *Result {
	start := time.Now()
	s := &lnsSearcher{
		p:       p,
		opt:     opt,
		nq:      p.Query.NumNodes(),
		nr:      p.Host.NumNodes(),
		started: start,
	}
	s.init()
	s.search()
	res := &Result{
		Solutions: s.solutions,
		Exhausted: !s.timedOut && !s.stopped,
		Stats:     s.stats,
	}
	res.Status = classify(res.Exhausted, s.nSol)
	res.Stats.Elapsed = time.Since(start)
	return res
}

// lnsState is the per-query-node frontier state.
type lnsState uint8

const (
	lnsExternal lnsState = iota
	lnsNeighbor
	lnsCovered
)

type lnsSearcher struct {
	p   *Problem
	opt Options
	nq  int
	nr  int

	state   []lnsState
	links   []int // links[q] = edges from q into the covered set
	assign  Mapping
	covered int
	scratch [][]int32 // per-depth candidate buffers (indexed by covered)

	ds  *domains // live domains per uncovered query node
	adj *hostAdj // lazy host adjacency rows

	stopClock
	stopped bool

	started   time.Time
	solutions []Mapping
	nSol      int
	stats     Stats
}

func (s *lnsSearcher) init() {
	s.state = make([]lnsState, s.nq)
	s.links = make([]int, s.nq)
	s.assign = make(Mapping, s.nq)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.scratch = make([][]int32, s.nq)
	s.arm(s.started, s.opt.Timeout, s.opt.Stop)
	// Node admissibility seeds the live domains: the only precomputation
	// LNS performs.
	s.ds = newDomains(s.nr, s.nq)
	useDegree := !s.opt.NoDegreeFilter
	for q := 0; q < s.nq; q++ {
		qid := graph.NodeID(q)
		dom := &s.ds.dom[q]
		degQ := s.p.Query.Degree(qid)
		outQ := s.p.Query.OutDegree(qid)
		for r := 0; r < s.nr; r++ {
			rid := graph.NodeID(r)
			if useDegree && (s.p.Host.Degree(rid) < degQ || s.p.Host.OutDegree(rid) < outQ) {
				continue
			}
			if !s.p.nodeOK(qid, rid) {
				continue
			}
			dom.Set(rid)
		}
		s.ds.count[q] = int32(dom.Count())
	}
	s.adj = newHostAdj(s.p.Host, false)
}

// fcPrune propagates covering q at r into the uncovered domains:
// injectivity clears r everywhere, and every uncovered query neighbor of
// q intersects with r's host adjacency. It reports false on the first
// wipeout; the caller undoes via its trail mark.
func (s *lnsSearcher) fcPrune(q graph.NodeID, r graph.NodeID) bool {
	for e := 0; e < s.nq; e++ {
		eid := graph.NodeID(e)
		if eid == q || s.state[e] == lnsCovered {
			continue
		}
		if s.ds.clear(eid, r) == 0 {
			s.wipeout()
			return false
		}
	}
	row := s.adj.row(r)
	ok := true
	s.queryNeighbors(q, func(nbr graph.NodeID) {
		if !ok || nbr == q || s.state[nbr] == lnsCovered {
			return
		}
		s.stats.PruneOps++
		if s.ds.intersect(nbr, row) == 0 {
			ok = false
		}
	})
	if !ok {
		s.wipeout()
	}
	return ok
}

func (s *lnsSearcher) wipeout() {
	s.stats.Wipeouts++
	s.stats.WipeoutDepthSum += int64(s.covered)
}

// queryNeighbors visits every query node adjacent to q (both directions
// when directed).
func (s *lnsSearcher) queryNeighbors(q graph.NodeID, visit func(nbr graph.NodeID)) {
	for _, a := range s.p.Query.Arcs(q) {
		visit(a.To)
	}
	if s.p.Query.Directed() {
		for _, a := range s.p.Query.InArcs(q) {
			visit(a.To)
		}
	}
}

// cover moves q into the covered set mapped to r and updates the frontier;
// it returns an undo closure restoring the previous states.
func (s *lnsSearcher) cover(q graph.NodeID, r graph.NodeID) func() {
	prevState := s.state[q]
	s.state[q] = lnsCovered
	s.assign[q] = r
	s.covered++
	var promoted []graph.NodeID
	s.queryNeighbors(q, func(nbr graph.NodeID) {
		s.links[nbr]++
		if s.state[nbr] == lnsExternal {
			s.state[nbr] = lnsNeighbor
			promoted = append(promoted, nbr)
		}
	})
	return func() {
		s.queryNeighbors(q, func(nbr graph.NodeID) {
			s.links[nbr]--
		})
		for _, nbr := range promoted {
			s.state[nbr] = lnsExternal
		}
		s.state[q] = prevState
		s.assign[q] = -1
		s.covered--
	}
}

// pickNext selects the next query node to match: the neighbor with the
// most links into the covered set (paper heuristic 2), falling back to the
// highest-degree external node when the frontier is empty (fresh seed, or
// a new connected component of a disconnected query).
func (s *lnsSearcher) pickNext() graph.NodeID {
	best := graph.NodeID(-1)
	bestLinks := -1
	for q := 0; q < s.nq; q++ {
		if s.state[q] != lnsNeighbor {
			continue
		}
		qid := graph.NodeID(q)
		if s.links[q] > bestLinks ||
			(s.links[q] == bestLinks && s.p.Query.Degree(qid) > s.p.Query.Degree(best)) {
			best, bestLinks = qid, s.links[q]
		}
	}
	if best >= 0 {
		return best
	}
	// Frontier empty: seed (paper heuristic 1: largest degree first).
	bestDeg := -1
	for q := 0; q < s.nq; q++ {
		if s.state[q] != lnsExternal {
			continue
		}
		qid := graph.NodeID(q)
		if d := s.p.Query.Degree(qid); d > bestDeg {
			best, bestDeg = qid, d
		}
	}
	return best
}

// connOK verifies every edge between query node q (about to be placed at
// host node r) and its covered neighbors: host adjacency in the correct
// orientation plus the edge constraint (paper step 7).
func (s *lnsSearcher) connOK(q graph.NodeID, r graph.NodeID) bool {
	ok := true
	check := func(qe *graph.Edge, rs, rt graph.NodeID) {
		if !ok {
			return
		}
		reID, exists := s.p.Host.EdgeBetween(rs, rt)
		if !exists {
			ok = false
			return
		}
		s.stats.ConstraintChk++
		if !s.p.edgeOK(qe, s.p.Host.Edge(reID), rs, rt) {
			ok = false
		}
	}
	for _, a := range s.p.Query.Arcs(q) {
		if s.state[a.To] == lnsCovered {
			qe := s.p.Query.Edge(a.Edge)
			if qe.From == q {
				check(qe, r, s.assign[a.To])
			} else {
				check(qe, s.assign[a.To], r)
			}
			if !ok {
				return false
			}
		}
	}
	if s.p.Query.Directed() {
		for _, a := range s.p.Query.InArcs(q) {
			if s.state[a.To] == lnsCovered {
				qe := s.p.Query.Edge(a.Edge)
				check(qe, s.assign[a.To], r)
				if !ok {
					return false
				}
			}
		}
	}
	return ok
}

func (s *lnsSearcher) search() {
	if s.timedOut || s.stopped {
		return
	}
	if s.covered == s.nq {
		s.record()
		return
	}
	q := s.pickNext()
	// The live domain already folds together admissibility, the host
	// adjacency of every covered neighbor and the in-use marks; it is
	// materialized ascending before any candidate is visited, because the
	// covers below mutate it.
	cands := s.ds.dom[q].AppendTo(s.scratch[s.covered][:0])
	s.scratch[s.covered] = cands
	found := false
	for _, r := range cands {
		if s.checkDeadline() || s.stopped {
			break
		}
		s.stats.NodesVisited++
		if !s.connOK(q, r) {
			continue
		}
		found = true
		mark, amark := s.ds.mark()
		if s.fcPrune(q, r) {
			undo := s.cover(q, r)
			s.search()
			undo()
		}
		// On a wipeout some uncovered node lost its last host: the cover
		// is rejected before descending.
		s.ds.undoTo(mark, amark)
		if s.timedOut || s.stopped {
			break
		}
	}
	if !found {
		s.stats.Backtracks++
	}
}

func (s *lnsSearcher) record() {
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
