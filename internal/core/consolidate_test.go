package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
)

// consHost builds a small undirected host: a ring of nClusters "machines"
// with the given capacity, every ring link carrying delay 10.
func consHost(nClusters int, capacity float64) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < nClusters; i++ {
		g.AddNode(fmt.Sprintf("m%d", i), graph.Attrs{}.SetNum("capacity", capacity))
	}
	ringAttrs := func() graph.Attrs {
		return graph.Attrs{}.SetNum("minDelay", 10).SetNum("avgDelay", 10).SetNum("maxDelay", 10)
	}
	for i := 0; i+1 < nClusters; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), ringAttrs())
	}
	if nClusters > 2 {
		g.MustAddEdge(graph.NodeID(nClusters-1), 0, ringAttrs())
	}
	return g
}

// lineQuery builds a path query of n nodes with unit demand and a delay
// ceiling that both real links (10) and loopbacks (0) satisfy.
func lineQuery(n int) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%d", i), graph.Attrs{}.SetNum("demand", 1))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Attrs{}.SetNum("maxDelay", 50))
	}
	return g
}

var ceilingConstraint = expr.MustCompile("rEdge.maxDelay <= vEdge.maxDelay")

func TestConsolidateAllowsSharing(t *testing.T) {
	host := consHost(3, 2) // 3 machines, capacity 2 each
	q := lineQuery(5)      // 5 unit-demand nodes: must share

	// Injectively impossible: NewProblem refuses 5 query nodes on 3
	// hosts, NewConsolidatedProblem accepts.
	if _, err := NewProblem(q, host, ceilingConstraint, nil); err != ErrQueryTooLarge {
		t.Fatalf("NewProblem: got %v, want ErrQueryTooLarge", err)
	}
	p, err := NewConsolidatedProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}

	res := Consolidate(p, Options{}, ConsolidateOptions{})
	if len(res.Solutions) == 0 {
		t.Fatal("no consolidated embedding found")
	}
	if res.Status != StatusComplete {
		t.Fatalf("status %v, want complete", res.Status)
	}
	for _, m := range res.Solutions {
		if err := p.VerifyConsolidated(m, ConsolidateOptions{}); err != nil {
			t.Fatalf("reported mapping fails verification: %v", err)
		}
	}
}

func TestConsolidateRespectsCapacity(t *testing.T) {
	host := consHost(4, 1.5) // capacity 1.5: two unit demands do not fit
	q := lineQuery(5)
	p, err := NewConsolidatedProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	// 5 nodes on 4 hosts with capacity 1.5 is infeasible (pigeonhole).
	if len(res.Solutions) != 0 {
		t.Fatalf("found %d embeddings violating capacity", len(res.Solutions))
	}
	if res.Status != StatusComplete {
		t.Fatalf("infeasible run should be a definitive no-match, got %v", res.Status)
	}
}

func TestConsolidateFractionalDemands(t *testing.T) {
	host := consHost(2, 1)
	q := graph.NewUndirected()
	for i := 0; i < 4; i++ {
		q.AddNode("", graph.Attrs{}.SetNum("demand", 0.5))
	}
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("maxDelay", 50))
	q.MustAddEdge(1, 2, graph.Attrs{}.SetNum("maxDelay", 50))
	q.MustAddEdge(2, 3, graph.Attrs{}.SetNum("maxDelay", 50))
	p, err := NewConsolidatedProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	if len(res.Solutions) == 0 {
		t.Fatal("four half-demand nodes should fit two unit hosts")
	}
	for _, m := range res.Solutions {
		if err := p.VerifyConsolidated(m, ConsolidateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConsolidateLoopbackConstraint(t *testing.T) {
	host := consHost(3, 2)
	// The query edge demands a *minimum* delay of 5; a 0-delay loopback
	// cannot provide it, so co-location across that edge must be refused.
	q := graph.NewUndirected()
	q.AddNode("", nil)
	q.AddNode("", nil)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 5))
	floor := expr.MustCompile("rEdge.minDelay >= vEdge.minDelay")
	p, err := NewProblem(q, host, floor, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	for _, m := range res.Solutions {
		if m[0] == m[1] {
			t.Fatalf("co-located endpoints despite minimum-delay demand: %v", m)
		}
	}
	if len(res.Solutions) == 0 {
		t.Fatal("distinct-host embeddings exist and were not found")
	}
}

func TestConsolidateLoopbackOptOut(t *testing.T) {
	host := consHost(3, 4)
	q := lineQuery(3)
	noLoopback := expr.MustCompile("rEdge.maxDelay <= vEdge.maxDelay && !has(rEdge.loopback)")
	p, err := NewProblem(q, host, noLoopback, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	if len(res.Solutions) == 0 {
		t.Fatal("no embeddings found")
	}
	for _, m := range res.Solutions {
		for e := 0; e < q.NumEdges(); e++ {
			qe := q.Edge(graph.EdgeID(e))
			if m[qe.From] == m[qe.To] {
				t.Fatalf("loopback opt-out violated by %v", m)
			}
		}
	}
}

// TestConsolidateDegeneratesToECF is the central equivalence property:
// with all capacities and demands at 1 the consolidated search must
// return exactly the injective ECF solution set.
func TestConsolidateDegeneratesToECF(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		host := randomAttrGraph(8+rng.Intn(5), 0.45, rng)
		q := randomAttrGraph(3+rng.Intn(3), 0.6, rng)
		p, err := NewProblem(q, host, ceilingConstraint, nil)
		if err != nil {
			t.Fatal(err)
		}
		ecf := ECF(p, Options{})
		cons := Consolidate(p, Options{}, ConsolidateOptions{})
		got, want := solutionSet(cons.Solutions), solutionSet(ecf.Solutions)
		if len(got) != len(want) {
			t.Fatalf("trial %d: consolidation found %d solutions, ECF %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: ECF solution %s missing from consolidation", trial, k)
			}
		}
	}
}

// randomAttrGraph builds a random connected-ish undirected graph whose
// edges carry a maxDelay in [10, 60].
func randomAttrGraph(n int, density float64, rng *rand.Rand) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode("", nil)
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), graph.Attrs{}.
			SetNum("maxDelay", 10+rng.Float64()*50))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(graph.NodeID(i), graph.NodeID(j)) && rng.Float64() < density/3 {
				g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), graph.Attrs{}.
					SetNum("maxDelay", 10+rng.Float64()*50))
			}
		}
	}
	return g
}

func TestConsolidateDirected(t *testing.T) {
	host := graph.NewDirected()
	for i := 0; i < 3; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("capacity", 2))
	}
	host.MustAddEdge(0, 1, graph.Attrs{}.SetNum("maxDelay", 10))
	host.MustAddEdge(1, 2, graph.Attrs{}.SetNum("maxDelay", 10))
	host.MustAddEdge(2, 0, graph.Attrs{}.SetNum("maxDelay", 10))

	q := graph.NewDirected()
	q.AddNode("", nil)
	q.AddNode("", nil)
	q.AddNode("", nil)
	q.AddNode("", nil)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("maxDelay", 50))
	q.MustAddEdge(1, 2, graph.Attrs{}.SetNum("maxDelay", 50))
	q.MustAddEdge(2, 3, graph.Attrs{}.SetNum("maxDelay", 50))

	p, err := NewConsolidatedProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	if len(res.Solutions) == 0 {
		t.Fatal("no directed consolidated embedding found")
	}
	for _, m := range res.Solutions {
		if err := p.VerifyConsolidated(m, ConsolidateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConsolidateNodeConstraint(t *testing.T) {
	host := consHost(4, 3)
	host.Node(0).Attrs = host.Node(0).Attrs.SetStr("osType", "linux")
	host.Node(1).Attrs = host.Node(1).Attrs.SetStr("osType", "freebsd")
	host.Node(2).Attrs = host.Node(2).Attrs.SetStr("osType", "linux")
	host.Node(3).Attrs = host.Node(3).Attrs.SetStr("osType", "linux")

	q := lineQuery(3)
	for i := 0; i < 3; i++ {
		q.Node(graph.NodeID(i)).Attrs = q.Node(graph.NodeID(i)).Attrs.SetStr("osType", "linux")
	}
	nodeC := expr.MustCompile("isBoundTo(vNode.osType, rNode.osType)")
	p, err := NewProblem(q, host, ceilingConstraint, nodeC)
	if err != nil {
		t.Fatal(err)
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	if len(res.Solutions) == 0 {
		t.Fatal("no embedding found")
	}
	for _, m := range res.Solutions {
		for _, r := range m {
			if r == 1 {
				t.Fatalf("query node placed on freebsd host: %v", m)
			}
		}
	}
}

func TestConsolidateTimeoutAndCap(t *testing.T) {
	host := consHost(6, 4)
	q := lineQuery(6)
	p, err := NewProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	capped := Consolidate(p, Options{MaxSolutions: 3}, ConsolidateOptions{})
	if len(capped.Solutions) != 3 || capped.Status != StatusPartial {
		t.Fatalf("cap: %d solutions, status %v", len(capped.Solutions), capped.Status)
	}
	timed := Consolidate(p, Options{Timeout: time.Nanosecond}, ConsolidateOptions{})
	if timed.Status == StatusComplete && len(timed.Solutions) == 0 {
		// A nanosecond deadline may still let the first few hundred steps
		// through (the clock is sampled every 256 steps); accept either a
		// partial result or a complete tiny enumeration.
		t.Log("tiny search completed before the first deadline check")
	}
}

func TestConsolidateStreamsSolutions(t *testing.T) {
	host := consHost(3, 2)
	q := lineQuery(4)
	p, err := NewConsolidatedProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	res := Consolidate(p, Options{OnSolution: func(m Mapping) bool {
		streamed++
		return streamed < 2
	}}, ConsolidateOptions{})
	if streamed != 2 {
		t.Fatalf("streamed %d solutions, want 2 (stop after second)", streamed)
	}
	if len(res.Solutions) != 0 {
		t.Fatal("OnSolution mode must not retain solutions")
	}
	if res.Status != StatusPartial {
		t.Fatalf("status %v, want partial", res.Status)
	}
}

func TestVerifyConsolidatedRejectsOverload(t *testing.T) {
	host := consHost(3, 1)
	q := lineQuery(2)
	p, err := NewProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes on host 0: demand 2 on capacity 1.
	if err := p.VerifyConsolidated(Mapping{0, 0}, ConsolidateOptions{}); err == nil {
		t.Fatal("overloaded mapping verified")
	}
}

func TestVerifyConsolidatedRejectsMissingEdge(t *testing.T) {
	host := consHost(5, 1) // ring: nodes 0 and 2 are not adjacent
	q := lineQuery(2)
	p, err := NewProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyConsolidated(Mapping{0, 2}, ConsolidateOptions{}); err == nil {
		t.Fatal("mapping across a missing host edge verified")
	}
}

func TestConsolidateSolutionsAreSorted(t *testing.T) {
	// Determinism check: two runs produce identical solution streams.
	host := consHost(4, 2)
	q := lineQuery(4)
	p, err := NewProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Consolidate(p, Options{}, ConsolidateOptions{})
	b := Consolidate(p, Options{}, ConsolidateOptions{})
	if len(a.Solutions) != len(b.Solutions) {
		t.Fatalf("non-deterministic solution count: %d vs %d", len(a.Solutions), len(b.Solutions))
	}
	ka := make([]string, len(a.Solutions))
	kb := make([]string, len(b.Solutions))
	for i := range a.Solutions {
		ka[i] = mappingKey(a.Solutions[i])
		kb[i] = mappingKey(b.Solutions[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("solution sets differ at %d: %s vs %s", i, ka[i], kb[i])
		}
	}
}

// TestConsolidateSaturationPruning: the saturated-host bitmap must not
// change Consolidate's answers, only skip provably packed hosts.
func TestConsolidateSaturationPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	host := graph.NewUndirected()
	nh := 6
	for i := 0; i < nh; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("capacity", float64(1+rng.Intn(3))))
	}
	for u := 0; u < nh; u++ {
		for v := u + 1; v < nh; v++ {
			if rng.Float64() < 0.7 {
				host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
	}
	query := graph.NewUndirected()
	nq := 5
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
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	for _, m := range res.Solutions {
		if err := p.VerifyConsolidated(m, ConsolidateOptions{}); err != nil {
			t.Fatalf("consolidated solution fails verification: %v", err)
		}
	}
	// Every verifying assignment the brute-force enumerator finds must be
	// in the result (the saturation pruning removes nothing feasible).
	var m Mapping = make(Mapping, nq)
	found := solutionSet(res.Solutions)
	var enumerate func(d int)
	total := 0
	enumerate = func(d int) {
		if d == nq {
			if p.VerifyConsolidated(m, ConsolidateOptions{}) == nil {
				total++
				if !found[mappingKey(m)] {
					t.Fatalf("feasible consolidated mapping %v missing from result", m)
				}
			}
			return
		}
		for r := 0; r < nh; r++ {
			m[d] = graph.NodeID(r)
			enumerate(d + 1)
		}
	}
	enumerate(0)
	if total != len(res.Solutions) {
		t.Fatalf("Consolidate returned %d solutions, brute force found %d", len(res.Solutions), total)
	}
}
