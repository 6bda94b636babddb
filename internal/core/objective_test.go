package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// These tests pin the branch-and-bound tentpole: for every built-in
// objective, orientation and engine, the optimizing
// search returns a feasible embedding whose cost equals the exhaustive
// enumerate-and-argmin oracle's — the bounds only prune, never lose the
// optimum.

// objectiveProblem builds a random instance whose hosts carry the
// attributes all three objectives read: "price" (attr-cost), "cpu"
// (load-balance) and "active" on roughly half the hosts (energy).
func objectiveProblem(t *testing.T, seed int64, directed bool) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := graph.New(directed)
	nr := 6 + rng.Intn(4)
	for i := 0; i < nr; i++ {
		attrs := graph.Attrs{}.
			SetNum("price", float64(1+rng.Intn(20))).
			SetNum("cpu", float64(1+rng.Intn(4)))
		if rng.Float64() < 0.5 {
			attrs = attrs.SetNum("active", 1)
		}
		host.AddNode("", attrs)
	}
	for u := 0; u < nr; u++ {
		for v := 0; v < nr; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if rng.Float64() < 0.5 {
				d := 1 + rng.Float64()*99
				host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.
					SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.2))
			}
		}
	}
	query := graph.New(directed)
	nq := 2 + rng.Intn(3)
	for i := 0; i < nq; i++ {
		query.AddNode("", nil)
	}
	for i := 1; i < nq; i++ {
		lo, hi := rng.Float64()*40, 60+rng.Float64()*80
		query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Attrs{}.
			SetNum("minDelay", lo).SetNum("maxDelay", hi))
	}
	p, err := NewProblem(query, host, delayWindow, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testObjectives is the matrix every equivalence test sweeps: the three
// kinds plus negative-weight variants of each — attr-cost exercises the
// non-monotone additive full fold, load balance the max composition over
// all-negative terms (the -Inf cost seed), and energy the domain scan in
// place of the active-set probe.
var testObjectives = []Objective{
	{Kind: ObjectiveAttrCost, Attr: "price"},
	{Kind: ObjectiveAttrCost, Attr: "price", Weight: -1},
	{Kind: ObjectiveLoadBalance, Attr: "cpu"},
	{Kind: ObjectiveLoadBalance, Attr: "cpu", Weight: -1},
	{Kind: ObjectiveEnergy},
	{Kind: ObjectiveEnergy, Weight: -1},
}

func objLabel(o Objective) string {
	return fmt.Sprintf("kind%d/%s/w%g", o.Kind, o.Attr, o.Weight)
}

// argminOracle enumerates every embedding without optimization and
// evaluates the objective canonically — the reference the B&B cost must
// hit exactly (modulo float summation order).
func argminOracle(p *Problem, o Objective) (best float64, n int) {
	res := ECF(p, Options{})
	if len(res.Solutions) == 0 {
		return 0, 0
	}
	best = o.Cost(p.Host, res.Solutions[0])
	for _, m := range res.Solutions[1:] {
		if c := o.Cost(p.Host, m); c < best {
			best = c
		}
	}
	return best, len(res.Solutions)
}

func closeCost(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// checkOptimum asserts one optimizing result against the oracle: status
// complete, exactly one feasible solution, and the reported cost both
// matches the canonical evaluation of the returned mapping and the
// oracle's optimum.
func checkOptimum(t *testing.T, label string, p *Problem, o Objective, res *Result, want float64) {
	t.Helper()
	if res.Status != StatusComplete || !res.Exhausted {
		t.Fatalf("%s: status %v exhausted %v", label, res.Status, res.Exhausted)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("%s: %d solutions, want exactly the incumbent", label, len(res.Solutions))
	}
	m := res.Solutions[0]
	if err := p.Verify(m); err != nil {
		t.Fatalf("%s: optimum infeasible: %v", label, err)
	}
	if c := o.Cost(p.Host, m); !closeCost(c, res.Cost) {
		t.Fatalf("%s: reported cost %v but mapping evaluates to %v", label, res.Cost, c)
	}
	if !closeCost(res.Cost, want) {
		t.Fatalf("%s: optimum %v, oracle argmin %v", label, res.Cost, want)
	}
}

// TestObjectiveCostSemantics pins the canonical evaluator: additive
// attr-cost with missing-attribute zeros and negative weights, max-
// composed load balance with the <1 slot clamp, and energy counting only
// inactive hosts.
func TestObjectiveCostSemantics(t *testing.T) {
	host := graph.NewUndirected()
	host.AddNode("a", graph.Attrs{}.SetNum("price", 4).SetNum("slots", 2).SetNum("active", 1))
	host.AddNode("b", graph.Attrs{}.SetNum("price", 10).SetNum("slots", 0.25))
	host.AddNode("c", nil) // no attributes at all
	m := Mapping{0, 1, 2}

	if c := (Objective{}).Cost(host, m); c != 0 {
		t.Errorf("disabled objective cost = %v", c)
	}
	if c := (Objective{Kind: ObjectiveAttrCost, Attr: "price"}).Cost(host, m); c != 14 {
		t.Errorf("attr-cost = %v, want 14 (missing attr = 0)", c)
	}
	if c := (Objective{Kind: ObjectiveAttrCost, Attr: "price", Weight: -2}).Cost(host, m); c != -28 {
		t.Errorf("weighted attr-cost = %v, want -28", c)
	}
	// Load balance: max(1/2, 1/1, 1/1) — b's 0.25 slots and c's missing
	// attribute both clamp to 1.
	if c := (Objective{Kind: ObjectiveLoadBalance}).Cost(host, m); c != 1 {
		t.Errorf("load-balance = %v, want 1", c)
	}
	// Energy: a is active, b and c are not.
	if c := (Objective{Kind: ObjectiveEnergy}).Cost(host, m); c != 2 {
		t.Errorf("energy = %v, want 2", c)
	}
}

// TestBnBOptimumMatchesExhaustive is the central property: across
// objectives, orientations and both optimizing orders
// (static and dynamic), the optimizing search's cost equals the
// exhaustive oracle's argmin.
func TestBnBOptimumMatchesExhaustive(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			p := objectiveProblem(t, seed, directed)
			for _, o := range testObjectives {
				want, n := argminOracle(p, o)
				if n == 0 {
					continue // infeasible instance: nothing to optimize
				}
				label := fmt.Sprintf("dir=%v seed=%d %s", directed, seed, objLabel(o))
				opt := Options{Optimize: true, Objective: o}
				checkOptimum(t, label+" fc", p, o, ECF(p, opt), want)
				checkOptimum(t, label+" dynamic", p, o, DynamicECF(p, opt), want)
			}
		}
	}
}

// TestBnBWithIndexAfterDeltaChain pins the lower bounds to the graph
// being searched, whatever index the options carry: with an index patched
// through a chain of attribute edits and edge removals, the optimum on
// the final graph, and on a node-attribute sibling of it that cheapens
// every other host (ApplyDelta, the index still describing the graph it
// came from), must match the oracle computed on that graph without any
// index.
func TestBnBWithIndexAfterDeltaChain(t *testing.T) {
	var totalProbes int64
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(400 + seed))
			p := objectiveProblem(t, 40+seed, directed)
			host := p.Host
			idx := index.Build(host, 1, index.Config{})
			for step := 0; step < 4; step++ {
				d := &graph.Delta{}
				// Reprice a couple of hosts: the attr-cost bounds must follow.
				for k := 0; k < 2; k++ {
					r := graph.NodeID(rng.Intn(host.NumNodes()))
					d.SetNodeAttrs = append(d.SetNodeAttrs, graph.NodeAttrUpdate{
						Node: host.Node(r).Name,
						Set:  graph.Attrs{}.SetNum("price", float64(1+rng.Intn(20))),
					})
				}
				if host.NumEdges() > 1 && rng.Float64() < 0.5 {
					e := host.Edge(graph.EdgeID(rng.Intn(host.NumEdges())))
					d.RemoveEdges = append(d.RemoveEdges, graph.EdgeRef{
						Source: host.Node(e.From).Name, Target: host.Node(e.To).Name,
					})
				}
				next, err := host.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				idx = idx.Apply(host, next, d, uint64(step+2))
				host = next
			}
			var every []graph.NodeID
			for r := 0; r < host.NumNodes(); r += 2 {
				every = append(every, graph.NodeID(r))
			}
			sibling := attrSibling(t, host, every, graph.Attrs{}.SetNum("price", 0).SetNum("cpu", 50))
			for _, g := range []*graph.Graph{host, sibling} {
				p2, err := NewProblem(p.Query, g, delayWindow, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range testObjectives {
					want, n := argminOracle(p2, o)
					if n == 0 {
						continue
					}
					label := fmt.Sprintf("dir=%v seed=%d sibling=%v %s indexed", directed, seed, g == sibling, objLabel(o))
					res := ECF(p2, Options{Optimize: true, Objective: o, Index: idx})
					checkOptimum(t, label, p2, o, res, want)
					totalProbes += res.Stats.BoundProbes
				}
			}
		}
	}
	// Tiny instances may resolve on prefix cuts alone, but across the
	// sweep the per-node lower bounds must have been consulted.
	if totalProbes == 0 {
		t.Error("no bound probes across the whole sweep — lower bounds never consulted")
	}
}

// TestOptimizeAnytimeOnImprove pins the anytime contract: OnImprove
// fires with strictly decreasing feasible incumbents and the last one is
// the final answer.
func TestOptimizeAnytimeOnImprove(t *testing.T) {
	p := objectiveProblem(t, 7, false)
	o := Objective{Kind: ObjectiveAttrCost, Attr: "price"}
	if _, n := argminOracle(p, o); n < 2 {
		t.Skip("instance too small to observe improvement")
	}
	var costs []float64
	var last Mapping
	res := ECF(p, Options{Optimize: true, Objective: o, OnImprove: func(m Mapping, cost float64) {
		if err := p.Verify(m); err != nil {
			t.Errorf("incumbent %d infeasible: %v", len(costs), err)
		}
		costs = append(costs, cost)
		last = m.Clone()
	}})
	if len(costs) == 0 {
		t.Fatal("OnImprove never fired")
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] >= costs[i-1] {
			t.Fatalf("incumbent costs not strictly decreasing: %v", costs)
		}
	}
	if got := costs[len(costs)-1]; !closeCost(got, res.Cost) {
		t.Fatalf("last improvement %v != final cost %v", got, res.Cost)
	}
	if mappingKey(last) != mappingKey(res.Solutions[0]) {
		t.Fatal("last improved mapping is not the returned optimum")
	}
	if res.Stats.IncumbentUpdates != int64(len(costs)) {
		t.Fatalf("IncumbentUpdates %d but %d improvements observed",
			res.Stats.IncumbentUpdates, len(costs))
	}
}

// TestParallelOptimizeSharedIncumbent runs the work-stealing search in
// optimizing mode on a steal-heavy instance (run under -race in CI): the
// workers must share one incumbent through the atomic bound, still steal
// (Steals > 0), and land on the sequential optimum.
func TestParallelOptimizeSharedIncumbent(t *testing.T) {
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
	o := Objective{Kind: ObjectiveAttrCost, Attr: "cpu"}
	want, n := argminOracle(p, o)
	if n == 0 {
		t.Fatal("planted instance infeasible")
	}
	seq := ECF(p, Options{Optimize: true, Objective: o})
	checkOptimum(t, "sequential bnb", p, o, seq, want)

	var improvements int
	par := ParallelECF(p, Options{
		Workers:   8,
		Optimize:  true,
		Objective: o,
		OnImprove: func(m Mapping, cost float64) { improvements++ },
	})
	checkOptimum(t, "parallel bnb", p, o, par, want)
	if par.Stats.Steals == 0 {
		t.Error("optimizing parallel run never stole — shared incumbent untested")
	}
	if par.Stats.IncumbentUpdates == 0 {
		t.Error("no incumbent updates recorded")
	}
	if improvements == 0 {
		t.Error("OnImprove never forwarded from the shared incumbent")
	}
}

// TestOptimizeBoundsActuallyCut pins that the machinery is engaged on an
// instance where it must be: with an informative additive objective the
// optimizing run records bound cuts and visits no more nodes than plain
// enumeration.
func TestOptimizeBoundsActuallyCut(t *testing.T) {
	o := Objective{Kind: ObjectiveAttrCost, Attr: "price"}
	var p *Problem
	for seed := int64(1); seed <= 30; seed++ {
		cand := objectiveProblem(t, seed, false)
		if _, n := argminOracle(cand, o); n >= 8 {
			p = cand
			break
		}
	}
	if p == nil {
		t.Fatal("no seed produced a solution-rich instance")
	}
	plain := ECF(p, Options{})
	bnb := ECF(p, Options{Optimize: true, Objective: o})
	if bnb.Stats.BoundCuts == 0 {
		t.Error("no bound cuts on a multi-solution instance")
	}
	if bnb.Stats.NodesVisited > plain.Stats.NodesVisited {
		t.Errorf("optimizing search visited %d nodes, enumeration only %d",
			bnb.Stats.NodesVisited, plain.Stats.NodesVisited)
	}
}
