package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/topo"
)

// The oracle is the simplest statement of what an embedding is: every
// injective assignment of query nodes to hosts that Problem.Verify
// accepts. It shares nothing with the engines — no filters, no domains,
// no degree filter, no value heuristic — so agreement with it pins the
// solution *set* of every algorithm, with arc-consistency propagation
// forced on (threshold 0), armed by the first failure (1) and at its
// shipped threshold. Given the variable order a static-order engine
// uses, it also pins that engine's solution *sequence*.

// bruteForce enumerates the injective assignments Problem.Verify accepts,
// placing the query nodes in the sequence order (nil: by ID) and trying
// hosts in ascending ID at every place. A partial assignment is abandoned
// as soon as a placed node fails Problem.NodeFeasible or a query edge
// between two placed nodes fails Problem.EdgeFeasible — both are
// necessary for Verify, and they keep 12-host × 6-node instances cheap.
// Solutions come out in lexicographic order over order: the sequence a
// depth-first search of that order with ascending values must reproduce.
func bruteForce(p *Problem, order []graph.NodeID) []Mapping {
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	if order == nil {
		order = make([]graph.NodeID, nq)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
	}
	var out []Mapping
	m := make(Mapping, nq)
	for i := range m {
		m[i] = -1
	}
	used := make([]bool, nr)
	var rec func(d int)
	rec = func(d int) {
		if d == nq {
			if p.Verify(m) == nil {
				out = append(out, m.Clone())
			}
			return
		}
		q := order[d]
		for r := graph.NodeID(0); int(r) < nr; r++ {
			if used[r] || !p.NodeFeasible(q, r) {
				continue
			}
			m[q] = r
			if placedEdgesFeasible(p, m, q) {
				used[r] = true
				rec(d + 1)
				used[r] = false
			}
		}
		m[q] = -1
	}
	rec(0)
	return out
}

// placedEdgesFeasible checks every query edge joining q to a placed node.
func placedEdgesFeasible(p *Problem, m Mapping, q graph.NodeID) bool {
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		if (qe.From == q || qe.To == q) && m[qe.From] >= 0 && m[qe.To] >= 0 &&
			!p.EdgeFeasible(qe, m[qe.From], m[qe.To]) {
			return false
		}
	}
	return true
}

// ecfOrder is the static variable order ECF derives for opt: the order
// the oracle must enumerate in to reproduce ECF's sequence.
func ecfOrder(p *Problem, opt Options) []graph.NodeID {
	f := BuildFilters(p, &opt)
	defer f.release()
	return searchOrder(f, opt.Order)
}

// assertOracleSequence pins a static-order run to the oracle's sequence:
// an uncapped run returns all of it, a run capped at k its first k, and
// the status is complete exactly when the cap is 0 or exceeds the
// oracle's count (reaching the cap stops the search), partial otherwise.
func assertOracleSequence(t *testing.T, label string, res *Result, want []Mapping, limit int) {
	t.Helper()
	complete := limit == 0 || limit > len(want)
	if !complete {
		want = want[:limit]
	}
	if len(res.Solutions) != len(want) {
		t.Fatalf("%s: %d solutions, oracle %d", label, len(res.Solutions), len(want))
	}
	for i := range want {
		if mappingKey(res.Solutions[i]) != mappingKey(want[i]) {
			t.Fatalf("%s: solution %d is %v, oracle %v", label, i, res.Solutions[i], want[i])
		}
	}
	wantStatus := StatusPartial
	if complete {
		wantStatus = StatusComplete
	}
	if res.Status != wantStatus || res.Exhausted != complete {
		t.Fatalf("%s: status %v exhausted %v, want %v/%v", label, res.Status, res.Exhausted, wantStatus, complete)
	}
}

// withArmAfter runs fn with new searchers taking the given propagation
// threshold.
func withArmAfter(th int64, fn func()) {
	defer func(old int64) { acArmAfter = old }(acArmAfter)
	acArmAfter = th
	fn()
}

var armThresholds = []int64{0, 1, acArmWipeouts}

// oracleProblem builds a seeded 6–8-host, 3–5-node instance with a
// cyclic query (a tree is decided by arc consistency alone), window
// constraints on every edge and, when constrained, a node constraint.
func oracleProblem(t *testing.T, seed int64, directed, constrained bool) *Problem {
	return oracleProblemOn(t, seed, directed, constrained, false)
}

// oracleProblemOn is oracleProblem on a dense host when dense: 22–24
// hosts, 90% of the pairs as edges, under a 3–4-node query. An undirected
// one is within the density bound, so its index keeps arc-slot range
// indexes.
func oracleProblemOn(t *testing.T, seed int64, directed, constrained, dense bool) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := graph.New(directed)
	nr, density := 6+rng.Intn(3), 0.55
	if dense {
		nr, density = nr+16, 0.9
	}
	for i := 0; i < nr; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(4))))
	}
	for u := 0; u < nr; u++ {
		for v := 0; v < nr; v++ {
			if u == v || (!directed && u > v) || rng.Float64() >= density {
				continue
			}
			d := 1 + rng.Float64()*99
			host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.
				SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.2))
		}
	}
	query := graph.New(directed)
	nq := 3 + rng.Intn(3)
	if dense {
		nq = min(nq, 4)
	}
	for i := 0; i < nq; i++ {
		query.AddNode("", graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(3))))
	}
	window := func() graph.Attrs {
		return graph.Attrs{}.SetNum("minDelay", rng.Float64()*30).SetNum("maxDelay", 50+rng.Float64()*90)
	}
	for i := 1; i < nq; i++ {
		query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), window())
	}
	for extra := 0; extra < 2; extra++ {
		u, v := graph.NodeID(rng.Intn(nq)), graph.NodeID(rng.Intn(nq))
		if _, dup := query.EdgeBetween(u, v); u != v && !dup {
			query.MustAddEdge(u, v, window())
		}
	}
	var edgeC, nodeC *expr.Program
	if constrained {
		edgeC, nodeC = delayWindow, expr.MustCompile("rNode.cpu >= vNode.cpu")
	}
	p, err := NewProblem(query, host, edgeC, nodeC)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ringProblem is a small topo.SkewedRing: infeasible by parity, which is
// what propagation is there to see.
func ringProblem(t testing.TB, m, decoys, ringLen int) *Problem {
	t.Helper()
	q, host := topo.SkewedRing(m, decoys, ringLen)
	p, err := NewProblem(q, host, delayWindow, expr.MustCompile("!has(vNode.seed) || has(rNode.seed)"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracleCase is one instance of the search oracles; idx, when set, is
// the host's index, which the searches are given.
type oracleCase struct {
	label string
	p     *Problem
	idx   *index.Index
}

func oracleCases(t *testing.T) []oracleCase {
	var cases []oracleCase
	for _, directed := range []bool{false, true} {
		for _, constrained := range []bool{false, true} {
			for seed := int64(1); seed <= 10; seed++ {
				cases = append(cases, oracleCase{
					label: fmt.Sprintf("dir=%v constrained=%v seed=%d", directed, constrained, seed),
					p:     oracleProblem(t, seed, directed, constrained),
				})
			}
		}
	}
	// Dense hosts whose index answers the window from arc-slot range
	// indexes.
	for seed := int64(1); seed <= 4; seed++ {
		p := oracleProblemOn(t, seed, false, true, true)
		cases = append(cases, oracleCase{fmt.Sprintf("dense indexed seed=%d", seed), p, index.Build(p.Host, 1, index.Config{})})
	}
	cases = append(cases,
		oracleCase{label: "ring(2,1,3)", p: ringProblem(t, 2, 1, 3)},
		oracleCase{label: "ring(3,2,5)", p: ringProblem(t, 3, 2, 5)},
	)
	return cases
}

// TestSearchMatchesBruteForce: every algorithm returns exactly the
// oracle's solution set and its status, whatever the orientation, order,
// constraints and propagation threshold; ECF
// still enumerates in the oracle's sequence over its variable order,
// because propagation only deletes values that head no solution; and a
// capped LNS run returns the first solutions it finds, each verified.
func TestSearchMatchesBruteForce(t *testing.T) {
	algos := []struct {
		name string
		run  func(*Problem, Options) *Result
		opt  Options
	}{
		{"ecf", ECF, Options{}},
		{"rwb", RWB, Options{Seed: 11, MaxSolutions: 1 << 30}},
		{"dynamic", DynamicECF, Options{}},
		{"parallel", ParallelECF, Options{Workers: 3}},
		{"lns", LNS, Options{}},
	}
	feasible, infeasible := 0, 0
	pruneOps := make(map[int64]int64) // per threshold, summed over everything
	for _, c := range oracleCases(t) {
		want := bruteForce(c.p, nil)
		if len(want) > 0 {
			feasible++
		} else {
			infeasible++
		}
		for _, order := range []OrderMode{OrderAscending, OrderNatural} {
			seq := bruteForce(c.p, ecfOrder(c.p, Options{Order: order}))
			for _, th := range armThresholds {
				withArmAfter(th, func() {
					for _, a := range algos {
						label := fmt.Sprintf("%s order=%v arm=%d %s", c.label, order, th, a.name)
						opt := a.opt
						opt.Order, opt.Index = order, c.idx
						res := a.run(c.p, opt)
						sameSolutionSets(t, label, res.Solutions, want)
						if res.Status != StatusComplete || !res.Exhausted {
							t.Errorf("%s: status %v exhausted %v, want a complete answer", label, res.Status, res.Exhausted)
						}
						pruneOps[th] += res.Stats.PruneOps
						if a.name == "ecf" {
							assertOracleSequence(t, label+" sequence", res, seq, 0)
						}
					}
				})
			}
		}
		const lnsCap = 2
		capped := LNS(c.p, Options{MaxSolutions: lnsCap})
		if n := len(capped.Solutions); n != min(lnsCap, len(want)) || capped.Exhausted != (lnsCap > len(want)) {
			t.Errorf("%s capped lns: %d solutions, exhausted %v; oracle has %d", c.label, n, capped.Exhausted, len(want))
		}
		for _, m := range capped.Solutions {
			if err := c.p.Verify(m); err != nil {
				t.Errorf("%s capped lns: %v", c.label, err)
			}
		}
	}
	if feasible < 5 || infeasible < 5 {
		t.Errorf("sweep saw %d feasible and %d infeasible instances, want both kinds", feasible, infeasible)
	}
	// Instances this small never fail 256 times, so only the lowered
	// thresholds reach propagate. Its revisions are counted in PruneOps
	// and what it deletes saves row ANDs further down, so the total moves
	// (up at 0, either way at 1) exactly when it ran.
	for _, th := range []int64{0, 1} {
		if pruneOps[th] == pruneOps[acArmWipeouts] {
			t.Errorf("propagation never ran at threshold %d: PruneOps %d, same as the default's", th, pruneOps[th])
		}
	}
}

// TestBnBOptimumMatchesBruteForce pins branch-and-bound to the oracle's
// argmin with propagation at every node: the domains the lower bounds
// read are then pruned by revisions as well as by row ANDs.
func TestBnBOptimumMatchesBruteForce(t *testing.T) {
	withArmAfter(0, func() {
		for _, directed := range []bool{false, true} {
			for seed := int64(1); seed <= 12; seed++ {
				p := objectiveProblem(t, seed, directed)
				all := bruteForce(p, nil)
				if len(all) == 0 {
					continue
				}
				for _, o := range testObjectives {
					want := o.Cost(p.Host, all[0])
					for _, m := range all[1:] {
						want = min(want, o.Cost(p.Host, m))
					}
					label := fmt.Sprintf("dir=%v seed=%d %s", directed, seed, objLabel(o))
					opt := Options{Optimize: true, Objective: o, Workers: 3}
					checkOptimum(t, label+" ecf", p, o, ECF(p, opt), want)
					checkOptimum(t, label+" dynamic", p, o, DynamicECF(p, opt), want)
					checkOptimum(t, label+" parallel", p, o, ParallelECF(p, opt), want)
				}
			}
		}
	})
}

// TestArmedBackjumpsStaySound covers what 8-host instances cannot: a
// conflict-directed jump over a level whose assignment shaped a domain
// that propagation later read. Dropping the pastFC[y] ∪= pastFC[x] step
// of revise loses solutions here (OrderDescending puts the wide domains
// first, which is where the jumps are long) and nowhere in the sweep
// above. 12 hosts × 6 nodes is 665,280 full assignments; the oracle's
// pair checks cut that to the partial assignments that stay feasible.
func TestArmedBackjumpsStaySound(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nr, nq = 12, 6
		host := graph.NewUndirected()
		host.AddNodes(nr)
		for u := 0; u < nr; u++ {
			for v := u + 1; v < nr; v++ {
				if rng.Float64() < 0.3 {
					host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), nil)
				}
			}
		}
		query := graph.NewUndirected()
		query.AddNodes(nq)
		for i := 1; i < nq; i++ {
			query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), nil)
		}
		for extra := 0; extra < 2; extra++ {
			u, v := graph.NodeID(rng.Intn(nq)), graph.NodeID(rng.Intn(nq))
			if _, dup := query.EdgeBetween(u, v); u != v && !dup {
				query.MustAddEdge(u, v, nil)
			}
		}
		p, err := NewProblem(query, host, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []OrderMode{OrderDescending, OrderNatural} {
			want := bruteForce(p, ecfOrder(p, Options{Order: order}))
			for _, th := range []int64{0, 1, 2} {
				withArmAfter(th, func() {
					label := fmt.Sprintf("seed %d order %v arm %d", seed, order, th)
					assertOracleSequence(t, label+" ecf", ECF(p, Options{Order: order}), want, 0)
					sameSolutionSets(t, label+" dynamic", DynamicECF(p, Options{}).Solutions, want)
				})
			}
		}
	}
}
