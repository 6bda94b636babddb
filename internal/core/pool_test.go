package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"netembed/internal/graph"
)

// assertSameSequence pins two runs of one search to the same solution
// sequence and the same outcome classification.
func assertSameSequence(t *testing.T, label string, got, want *Result) {
	t.Helper()
	sameSolutionSets(t, label, got.Solutions, want.Solutions)
	if len(got.Solutions) == len(want.Solutions) {
		for i := range got.Solutions {
			if mappingKey(got.Solutions[i]) != mappingKey(want.Solutions[i]) {
				t.Fatalf("%s: solution %d out of sequence", label, i)
			}
		}
	}
	if got.Status != want.Status || got.Exhausted != want.Exhausted {
		t.Fatalf("%s: outcome classification differs: %v/%v vs %v/%v",
			label, got.Status, got.Exhausted, want.Status, want.Exhausted)
	}
}

// withFreshPools runs run with empty searcher and filter pools, so every
// search in it starts on freshly allocated state, and then puts the
// package's pools back. No other search may run meanwhile.
func withFreshPools(run func()) {
	fc, filters := fcPool, filtersPool
	fcPool, filtersPool = &sync.Pool{New: fc.New}, &sync.Pool{New: filters.New}
	defer func() { fcPool, filtersPool = fc, filters }()
	run()
}

// TestPooledSearchMatchesFresh pins the recycling layer's correctness
// contract: a search that lands on a recycled fcSearcher/Filters (after
// the pool has been polluted by differently-shaped problems) must return
// byte-identical answers — same solutions, same order, same outcome
// classification — as a search running on freshly allocated state. Any
// stale bit a release/acquire pair fails to reset shows up here as a
// divergent solution sequence.
func TestPooledSearchMatchesFresh(t *testing.T) {
	algos := []struct {
		name string
		run  func(*Problem, Options) *Result
		opt  Options
	}{
		{"ecf", ECF, Options{}},
		{"ecf-capped", ECF, Options{MaxSolutions: 2}},
		{"rwb", RWB, Options{Seed: 7, MaxSolutions: 1 << 30}},
		{"dynamic", DynamicECF, Options{}},
	}
	for seed := int64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		for _, a := range algos {
			var fresh *Result
			withFreshPools(func() { fresh = a.run(p, a.opt) })

			// Pollute the pool: runs over problems with different node
			// counts, densities and base-set modes leave their geometry
			// in the recycled searchers and filters.
			for _, s := range []int64{seed + 20, seed + 40} {
				q := smallProblem(t, s)
				_ = ECF(q, Options{})
				_ = ECF(q, Options{LooseRoot: true})
			}
			recycled := a.run(p, a.opt)

			assertSameSequence(t, fmt.Sprintf("seed %d %s", seed, a.name), recycled, fresh)
		}
	}
}

// TestPooledParallelMatchesSequential covers the worker-pool release
// path: every steal worker returns its searcher to the pool, and repeated
// parallel runs over reshaped problems must keep answering exactly like a
// fresh sequential search.
func TestPooledParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := smallProblem(t, seed)
		var fresh *Result
		withFreshPools(func() { fresh = ECF(p, Options{}) })
		for _, s := range []int64{seed + 11, seed + 23} {
			_ = ParallelECF(smallProblem(t, s), Options{Workers: 4})
		}
		par := ParallelECF(p, Options{Workers: 4})
		sameSolutionSets(t, fmt.Sprintf("seed %d parallel", seed), par.Solutions, fresh.Solutions)
	}
}

// TestReleaseIsNilSafe pins the guard clauses: releasing nil state must
// be a no-op, not a panic, so error paths can call release
// unconditionally.
func TestReleaseIsNilSafe(t *testing.T) {
	var s *fcSearcher
	s.release()
	var f *Filters
	f.release()
}

// TestRecycledSearcherStartsDisarmed: a searcher goes back to the pool
// with whatever propagation state its last subtree left — a failure
// count past the threshold, possibly a worklist cut short by a wipeout.
// The next search to draw it must start like a fresh one: disarmed, with
// nothing queued, and with a threshold sized for its own problem.
func TestRecycledSearcherStartsDisarmed(t *testing.T) {
	ring, small := ringProblem(t, 16, 6, 7), smallProblem(t, 1)
	opt := Options{}
	fRing, fSmall := BuildFilters(ring, &opt), BuildFilters(small, &opt)
	for try := 0; try < 50; try++ { // the pool may drop a Put (it does so at random under -race)
		s := newFCSearcher(ring, fRing, opt, nil, time.Now(), false)
		s.run()
		s.failures = s.armAfter // as when the run is cut off inside an armed subtree
		s.acWork = append(s.acWork, 0)
		s.acQueued[0] = true
		s.release()

		r := newFCSearcher(small, fSmall, opt, nil, time.Now(), false)
		recycled := r == s
		if r.failures != 0 || len(r.acWork) != 0 || r.armAfter != acArmWipeouts {
			t.Fatalf("acquired searcher: failures %d, worklist %v, threshold %d; want 0, empty, %d",
				r.failures, r.acWork, r.armAfter, acArmWipeouts)
		}
		for q, on := range r.acQueued {
			if on {
				t.Fatalf("acquired searcher has node %d marked queued", q)
			}
		}
		if len(r.acQueued) != r.nq || cap(r.acWork) < r.nq {
			t.Fatalf("propagation worklist sized %d/%d for a %d-node query", len(r.acQueued), cap(r.acWork), r.nq)
		}
		r.release()
		if recycled {
			return
		}
	}
	t.Fatal("the pool never handed the released searcher back")
}

// TestReleasedFiltersPinNoIndex: index-served dense rows alias the
// snapshot's adjacency, so a pooled Filters must hold none of them — no
// row slot non-nil, the spare ones past len(tablesB) and past each row
// slice's length included — or it would keep a retired snapshot alive.
func TestReleasedFiltersPinNoIndex(t *testing.T) {
	big, idx := indexProblem(t, 7, false, nil, cpuFits)
	small, _ := indexProblem(t, 8, false, nil, nil)
	for try := 0; try < 50; try++ { // the pool may drop a Put (it does so at random under -race)
		f := BuildFilters(big, &Options{Index: idx})
		aliased := false
		for _, rows := range f.tablesB {
			for r, row := range rows {
				aliased = aliased || row != nil && row == idx.Neighbors(graph.NodeID(r))
			}
		}
		if !aliased {
			t.Fatal("no row aliases the index's adjacency")
		}
		f.release()

		g := BuildFilters(small, &Options{})
		recycled := g == f
		g.release()
		for i, rows := range f.tablesB[:cap(f.tablesB)] {
			for r, row := range rows[:cap(rows)] {
				if row != nil {
					t.Fatalf("released Filters keeps table %d row %d", i, r)
				}
			}
		}
		if recycled {
			return
		}
	}
	t.Fatal("the pool never handed the released Filters back")
}
