package core

import (
	"math/rand"
	"sort"
	"time"

	"netembed/internal/graph"
)

// ECF is Exhaustive Search with Constraint Filtering (§V-A): it builds the
// filter matrices, orders the query nodes by ascending candidate count
// (Lemma 1), and runs a depth-first search of the permutations tree where
// each node's candidates come from intersecting the filter rows of its
// already-placed neighbors (formula (2)). ECF enumerates every feasible
// embedding unless Options caps or times the run.
func ECF(p *Problem, opt Options) *Result {
	start := time.Now()
	f := BuildFilters(p, &opt)
	res := searchWithFilters(p, f, opt, nil, start)
	res.Stats.Elapsed = time.Since(start)
	f.release()
	return res
}

// ECFWithFilters runs the ECF search against prebuilt filter matrices,
// letting callers amortize one BuildFilters across repeated searches —
// the same query re-embedded as options vary, or benchmarks isolating
// the search hot path from filter construction. The filter-shaping knobs
// in opt (LooseRoot, NoDegreeFilter, Index, Workers) have no effect here;
// they were fixed when f was built. The returned stats inherit f's
// filter-build counters.
func ECFWithFilters(f *Filters, opt Options) *Result {
	start := time.Now()
	res := searchWithFilters(f.p, f, opt, nil, start)
	res.Stats.Elapsed = time.Since(start)
	return res
}

// RWBWithFilters is ECFWithFilters with RWB's randomized candidate order
// and first-solution default.
func RWBWithFilters(f *Filters, opt Options) *Result {
	if opt.MaxSolutions == 0 {
		opt.MaxSolutions = 1
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(opt.Seed))
	res := searchWithFilters(f.p, f, opt, rng, start)
	res.Stats.Elapsed = time.Since(start)
	return res
}

// RWB is Random Walk search with Backtracking (§V-B): the same filters and
// pruning as ECF, but candidates at every level are tried in random order
// and the search stops at the first embedding (unless Options.MaxSolutions
// asks for more). With no feasible embedding it backtracks exhaustively to
// a definitive no-match answer, exactly like ECF.
func RWB(p *Problem, opt Options) *Result {
	if opt.MaxSolutions == 0 {
		opt.MaxSolutions = 1 // the paper's RWB returns the first solution
	}
	start := time.Now()
	f := BuildFilters(p, &opt)
	rng := rand.New(rand.NewSource(opt.Seed))
	res := searchWithFilters(p, f, opt, rng, start)
	res.Stats.Elapsed = time.Since(start)
	f.release()
	return res
}

// searchWithFilters runs the shared ECF/RWB search on the
// forward-checking engine (fc.go). The start time anchors both
// TimeToFirst and the timeout deadline, so filter construction counts
// toward the query's budget, exactly as the paper's end-to-end response
// times do.
func searchWithFilters(p *Problem, f *Filters, opt Options, rng *rand.Rand, start time.Time) *Result {
	if opt.Optimize && opt.Objective.Enabled() {
		// Optimality requires the exhausted tree, so a solution cap cannot
		// apply; OnSolution streams enumerations, not incumbents, and is
		// superseded by OnImprove here.
		opt.MaxSolutions = 0
		opt.OnSolution = nil
	}
	s := newFCSearcher(p, f, opt, rng, start, false)
	s.run()
	res := s.result()
	s.release()
	return res
}

// searchOrder realizes Lemma 1: examining query nodes in ascending order
// of candidate count minimizes the permutations tree. The default mode
// additionally keeps the ordered prefix connected so that every placement
// after the seed intersects at least one filter row (see OrderAscending).
func searchOrder(f *Filters, mode OrderMode) []graph.NodeID {
	return searchOrderInto(nil, f, mode)
}

// searchOrderInto is searchOrder writing into dst's backing array, so
// pooled searchers recompute their order without reallocating it.
func searchOrderInto(dst []graph.NodeID, f *Filters, mode OrderMode) []graph.NodeID {
	nq := f.nq
	order := grow(dst, nq)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	switch mode {
	case OrderNatural:
		return order
	case OrderDescending:
		sort.SliceStable(order, func(a, b int) bool {
			ca, cb := len(f.base[order[a]]), len(f.base[order[b]])
			if ca != cb {
				return ca > cb
			}
			return f.p.Query.Degree(order[a]) > f.p.Query.Degree(order[b])
		})
		return order
	case OrderUnconnected:
		sort.SliceStable(order, func(a, b int) bool {
			ca, cb := len(f.base[order[a]]), len(f.base[order[b]])
			if ca != cb {
				return ca < cb
			}
			return f.p.Query.Degree(order[a]) > f.p.Query.Degree(order[b])
		})
		return order
	default:
		return connectedAscendingOrder(order[:0], f)
	}
}

// connectedAscendingOrder grows the order greedily into the provided
// buffer: seed with the globally most-constrained node, then repeatedly
// take the node with the most edges into the ordered prefix, breaking
// ties by fewer base candidates and then higher query degree.
// Disconnected queries restart the seed rule per component.
func connectedAscendingOrder(order []graph.NodeID, f *Filters) []graph.NodeID {
	q := f.p.Query
	nq := f.nq
	picked := make([]bool, nq)
	prefixEdges := make([]int, nq) // edges from node into the ordered prefix

	better := func(i, best graph.NodeID) bool {
		if best < 0 {
			return true
		}
		ci, cb := prefixEdges[i] > 0, prefixEdges[best] > 0
		if ci != cb {
			return ci // connected to the prefix wins
		}
		if ci && prefixEdges[i] != prefixEdges[best] {
			return prefixEdges[i] > prefixEdges[best] // tighter intersection
		}
		if len(f.base[i]) != len(f.base[best]) {
			return len(f.base[i]) < len(f.base[best]) // Lemma 1
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
