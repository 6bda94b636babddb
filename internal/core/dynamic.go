package core

import (
	"math/rand"
	"time"
)

// DynamicECF is ECF with dynamic variable ordering: instead of fixing the
// node order up front (Lemma 1), every level re-selects the unplaced
// query node with the fewest current candidates — the classic
// most-constrained-variable rule from constraint programming. It runs on
// the forward-checking engine in dynamic mode, where the live domain
// counts make the pick an O(nq) read instead of a re-intersection per
// open node, and backjumping prunes on top.
//
// Completeness and correctness are inherited from the same filter
// machinery as ECF: candidate sets are exact for edges into placed
// neighbors, and node admissibility is folded into the filters.
func DynamicECF(p *Problem, opt Options) *Result {
	start := time.Now()
	f := BuildFilters(p, &opt)
	if opt.Optimize && opt.Objective.Enabled() {
		opt.MaxSolutions = 0 // optimality needs the exhausted tree
		opt.OnSolution = nil
	}
	var rng *rand.Rand
	if opt.Seed != 0 {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	s := newFCSearcher(p, f, opt, rng, start, true)
	s.run()
	res := s.result()
	s.release()
	f.release()
	return res
}
