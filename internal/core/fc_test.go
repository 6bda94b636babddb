package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// These tests pin the FC-CBJ engine (fc.go) — forward checking with
// conflict-directed backjumping — to the brute-force oracle of
// oracle_test.go: static-order runs enumerate exactly the oracle's
// sequence over the engine's variable order, capped runs its prefix, and
// the randomized and dynamic-order runs its set, across orderings,
// orientations and caps.

func TestFCMatchesOracleECF(t *testing.T) {
	orders := []OrderMode{OrderAscending, OrderNatural, OrderDescending, OrderUnconnected}
	for seed := int64(1); seed <= 20; seed++ {
		p := smallProblem(t, seed)
		for _, order := range orders {
			opt := Options{Order: order}
			assertOracleSequence(t, fmt.Sprintf("seed %d order %v", seed, order),
				ECF(p, opt), bruteForce(p, ecfOrder(p, opt)), 0)
		}
	}
}

func TestFCMatchesOracleMaxSolutions(t *testing.T) {
	// Capped runs must return the oracle's prefix: the engine enumerates
	// candidates ascending and only skips provably solution-free subtrees.
	for seed := int64(1); seed <= 15; seed++ {
		p := smallProblem(t, seed)
		want := bruteForce(p, ecfOrder(p, Options{}))
		for _, limit := range []int{1, 2, 3, 7} {
			assertOracleSequence(t, fmt.Sprintf("seed %d cap %d", seed, limit),
				ECF(p, Options{MaxSolutions: limit}), want, limit)
		}
	}
}

func TestFCMatchesOracleDirected(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		host := graph.NewDirected()
		nr := 4 + rng.Intn(4)
		host.AddNodes(nr)
		for u := 0; u < nr; u++ {
			for v := 0; v < nr; v++ {
				if u != v && rng.Float64() < 0.4 {
					host.AddEdge(graph.NodeID(u), graph.NodeID(v), nil)
				}
			}
		}
		query := graph.NewDirected()
		nq := 2 + rng.Intn(3)
		query.AddNodes(nq)
		for i := 1; i < nq; i++ {
			if rng.Intn(2) == 0 {
				query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), nil)
			} else {
				query.MustAddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), nil)
			}
		}
		p, err := NewProblem(query, host, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(p, ecfOrder(p, Options{}))
		assertOracleSequence(t, fmt.Sprintf("seed %d directed", seed), ECF(p, Options{}), want, 0)
		sameSolutionSets(t, fmt.Sprintf("seed %d directed dynamic", seed), DynamicECF(p, Options{}).Solutions, want)
	}
}

func TestFCMatchesOracleRWBAndDynamic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := smallProblem(t, seed)
		want := bruteForce(p, nil)
		// RWB to exhaustion: the shuffled sequence is the engine's own, so
		// only the set must coincide.
		rwb := RWB(p, Options{MaxSolutions: 1 << 30, Seed: seed})
		sameSolutionSets(t, fmt.Sprintf("seed %d RWB", seed), rwb.Solutions, want)
		sameSolutionSets(t, fmt.Sprintf("seed %d DynamicECF", seed), DynamicECF(p, Options{}).Solutions, want)
	}
}

func TestFCMatchesOracleLNSAndConsolidate(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := smallProblem(t, seed)
		sameSolutionSets(t, fmt.Sprintf("seed %d LNS", seed), LNS(p, Options{}).Solutions, bruteForce(p, nil))
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		host := graph.NewUndirected()
		nh := 5 + rng.Intn(3)
		for i := 0; i < nh; i++ {
			host.AddNode("", graph.Attrs{}.SetNum("capacity", float64(1+rng.Intn(3))))
		}
		for u := 0; u < nh; u++ {
			for v := u + 1; v < nh; v++ {
				if rng.Float64() < 0.6 {
					host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), nil)
				}
			}
		}
		query := graph.NewUndirected()
		nq := 4 + rng.Intn(2)
		for i := 0; i < nq; i++ {
			query.AddNode("", graph.Attrs{}.SetNum("demand", float64(1+i%2)))
		}
		for i := 1; i < nq; i++ {
			query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), nil)
		}
		p, err := NewConsolidatedProblem(query, host, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Consolidate places nodes in consOrder with ascending hosts, so
		// its sequence is the oracle's sorted lexicographically over it.
		s := &consSearcher{p: p, copt: ConsolidateOptions{}.withDefaults()}
		s.init()
		want := bruteConsolidated(p, ConsolidateOptions{})
		sort.SliceStable(want, func(i, j int) bool {
			for _, q := range s.order {
				if want[i][q] != want[j][q] {
					return want[i][q] < want[j][q]
				}
			}
			return false
		})
		assertOracleSequence(t, fmt.Sprintf("seed %d consolidate", seed),
			Consolidate(p, Options{}, ConsolidateOptions{}), want, 0)
	}
}

func TestWorkStealingParallelMatchesSequential(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 50}, rand.New(rand.NewSource(14)))
	q, _, err := topo.Subgraph(host, 8, 12, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.1)
	p, err := NewProblem(q, host, delayWindow, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := ECF(p, Options{})
	if len(seq.Solutions) == 0 {
		t.Fatal("planted query not found")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par := ParallelECF(p, Options{Workers: workers})
		sameSolutionSets(t, fmt.Sprintf("steal workers=%d", workers), par.Solutions, seq.Solutions)
		if par.Status != StatusComplete {
			t.Errorf("workers=%d status %v", workers, par.Status)
		}
	}
	// Capped runs respect the global budget.
	if len(seq.Solutions) > 3 {
		capped := ParallelECF(p, Options{Workers: 4, MaxSolutions: 3})
		if len(capped.Solutions) != 3 {
			t.Errorf("parallel cap: %d solutions", len(capped.Solutions))
		}
		for _, m := range capped.Solutions {
			if err := p.Verify(m); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestWorkStealingActuallySteals pins that the deque is exercised: a
// query whose first-level candidate count is far below the worker count
// forces idle workers onto published second-level subtrees.
func TestWorkStealingActuallySteals(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 40}, rand.New(rand.NewSource(16)))
	q, _, err := topo.Subgraph(host, 10, 16, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.15)
	p, err := NewProblem(q, host, delayWindow, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := ECF(p, Options{})
	par := ParallelECF(p, Options{Workers: 8})
	sameSolutionSets(t, "steal-heavy", par.Solutions, seq.Solutions)
	if par.Stats.Steals == 0 {
		t.Error("expected at least one steal on a skewed instance with 8 workers")
	}
}

// backjumpProblem wraps topo.BackjumpAdversary (see its doc: a
// triangle-free host whose pendant-triangle query is jointly infeasible
// but locally satisfiable everywhere) into a Problem.
func backjumpProblem(t testing.TB, nA, nM, mid int) *Problem {
	t.Helper()
	q, g, err := topo.BackjumpAdversary(nA, nM, mid)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(q, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBackjumpingPrunesAndAgrees: on the adversarial instance the FC
// engine must (a) agree with the oracle that there is no match, (b)
// actually backjump, and (c) visit fewer nodes than half the embeddings
// of the chain q0–…–q_mid alone: a chronological search of the natural
// order enumerates that whole middle subtree before the triangle refutes
// it, while backjumping vaults it.
func TestBackjumpingPrunesAndAgrees(t *testing.T) {
	const mid = 3
	p := backjumpProblem(t, 32, 96, mid)
	// OrderNatural pins the adversarial order (middle before the
	// triangle); the ascending heuristic would sort the conflict first,
	// which is exactly what a hostile instance avoids.
	fc := ECF(p, Options{Order: OrderNatural})
	// The oracle's order is free when the answer is empty: placing the
	// triangle q0, x, y first refutes it at once.
	triangleFirst := []graph.NodeID{0, mid + 1, mid + 2}
	for i := 1; i <= mid; i++ {
		triangleFirst = append(triangleFirst, graph.NodeID(i))
	}
	assertOracleSequence(t, "backjump nomatch", fc, bruteForce(p, triangleFirst), 0)
	if fc.Stats.Backjumps == 0 {
		t.Error("FC engine never backjumped on the adversarial instance")
	}
	if fc.Stats.Wipeouts == 0 || fc.Stats.PruneOps == 0 || fc.Stats.WipeoutDepthSum == 0 {
		t.Errorf("FC counters not populated: %+v", fc.Stats)
	}
	chain := graph.NewUndirected()
	chain.AddNodes(mid + 1)
	for i := 0; i < mid; i++ {
		chain.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), nil)
	}
	cp, err := NewProblem(chain, p.Host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if middle := len(bruteForce(cp, nil)); fc.Stats.NodesVisited*2 > int64(middle) {
		t.Errorf("FC visited %d nodes, the middle subtree has %d leaves — expected ≥2x pruning",
			fc.Stats.NodesVisited, middle)
	}
}

// TestFCStopCancellation extends the cancellation suite to the FC paths:
// the engine and the work-stealing pool must halt via the Stop hook well
// before the defensive timeout, mid-search.
func TestFCStopCancellation(t *testing.T) {
	p := hardProblem(t)
	for name, run := range map[string]func(*Problem, Options) *Result{
		"ECF-fc":        ECF,
		"DynamicECF-fc": DynamicECF,
		"LNS-fc":        LNS,
	} {
		t.Run(name, func(t *testing.T) {
			var polls atomic.Int64
			opt := Options{
				Timeout: 30 * time.Second,
				Stop:    func() bool { return polls.Add(1) > 40 },
			}
			start := time.Now()
			res := run(p, opt)
			assertCanceled(t, name, res, time.Since(start), 5*time.Second)
		})
	}
	t.Run("ParallelECF-steal", func(t *testing.T) {
		var cancel atomic.Bool
		opt := Options{Timeout: 30 * time.Second, Workers: 8, Stop: cancel.Load}
		go func() {
			time.Sleep(100 * time.Millisecond)
			cancel.Store(true)
		}()
		start := time.Now()
		res := ParallelECF(p, opt)
		assertCanceled(t, "ParallelECF-steal", res, time.Since(start), 5*time.Second)
	})
}

// TestParallelFutileStaysExhausted regression-tests the futile-flag
// path: a query whose infeasibility is independent of the root (a
// triangle pinned by node constraint to a triangle-free host pool,
// disjoint from the pool the root edge maps into) makes a worker's
// conflict analysis return jump -1 and raise the futile flag. The pool
// must still report sequential ECF's definitive answer — zero
// solutions, exhausted, StatusComplete — not a truncated/inconclusive
// search (the flag used to ride the Stop hook, which the stopClock
// records as a timeout).
func TestParallelFutileStaysExhausted(t *testing.T) {
	host := graph.NewUndirected()
	const nA, nB = 10, 64
	for i := 0; i < nA; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("pool", 1))
	}
	for i := 0; i < nB; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("pool", 2))
	}
	for u := 0; u < nA; u++ {
		for v := u + 1; v < nA; v++ {
			host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), nil)
		}
	}
	// Pool 2: a {1,5}-circulant — triangle-free (no a+b=c over ±{1,5}).
	for i := 0; i < nB; i++ {
		host.MustAddEdge(graph.NodeID(nA+i), graph.NodeID(nA+(i+1)%nB), nil)
		host.MustAddEdge(graph.NodeID(nA+i), graph.NodeID(nA+(i+5)%nB), nil)
	}
	q := graph.NewUndirected()
	q.AddNode("", graph.Attrs{}.SetNum("pool", 1))
	q.AddNode("", graph.Attrs{}.SetNum("pool", 1))
	for i := 0; i < 3; i++ {
		q.AddNode("", graph.Attrs{}.SetNum("pool", 2))
	}
	q.MustAddEdge(0, 1, nil) // root component: satisfiable in pool 1
	q.MustAddEdge(2, 3, nil) // triangle: impossible in triangle-free pool 2
	q.MustAddEdge(3, 4, nil)
	q.MustAddEdge(2, 4, nil)
	p, err := NewProblem(q, host, nil, expr.MustCompile("vNode.pool == rNode.pool"))
	if err != nil {
		t.Fatal(err)
	}
	seq := ECF(p, Options{Order: OrderNatural})
	if len(seq.Solutions) != 0 || !seq.Exhausted || seq.Status != StatusComplete {
		t.Fatalf("sequential baseline wrong: %d solutions, exhausted=%v status=%v",
			len(seq.Solutions), seq.Exhausted, seq.Status)
	}
	for _, workers := range []int{1, 4, 8} {
		for i := 0; i < 5; i++ { // scheduling-sensitive: repeat
			res := ParallelECF(p, Options{Workers: workers, Order: OrderNatural})
			if len(res.Solutions) != 0 || !res.Exhausted || res.Status != StatusComplete {
				t.Fatalf("workers=%d run %d: got %d solutions, exhausted=%v status=%v, want definitive no-match",
					workers, i, len(res.Solutions), res.Exhausted, res.Status)
			}
		}
	}
}

// TestParallelECFBitsetRace exercises the shared filter tables from
// concurrent shard workers; run under -race it proves the workers only
// share immutable rows.
func TestParallelECFBitsetRace(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(11)))
	q, _, err := topo.Subgraph(host, 10, 20, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.1)
	p, err := NewProblem(q, host, delayWindow, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := ParallelECF(p, Options{Workers: 8, MaxSolutions: 200})
	if len(res.Solutions) == 0 {
		t.Fatal("planted query not found")
	}
	for _, m := range res.Solutions {
		if err := p.Verify(m); err != nil {
			t.Fatalf("parallel bitset solution fails verification: %v", err)
		}
	}
	serial := ECF(p, Options{})
	got, want := solutionSet(res.Solutions), solutionSet(serial.Solutions)
	for k := range got {
		if !want[k] {
			t.Fatalf("parallel found embedding %s that serial ECF did not", k)
		}
	}
}
