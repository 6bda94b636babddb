package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
)

// randomPathHost builds a random attributed host for path-mode testing:
// edges carry avgDelay, most carry bandwidth and availability (some
// deliberately lack bandwidth to exercise MissingFails).
func randomPathHost(rng *rand.Rand, directed bool, n int, density float64) *graph.Graph {
	g := graph.New(directed)
	for i := 0; i < n; i++ {
		attrs := graph.Attrs{}
		if rng.Float64() < 0.5 {
			attrs = attrs.SetNum("cpu", float64(1+rng.Intn(4)))
		}
		g.AddNode(fmt.Sprintf("h%d", i), attrs)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if rng.Float64() >= density {
				continue
			}
			attrs := graph.Attrs{}.SetNum("avgDelay", 5+rng.Float64()*10)
			if rng.Float64() < 0.85 {
				attrs = attrs.SetNum("bandwidth", 10+rng.Float64()*90)
			}
			attrs = attrs.SetNum("availability", 0.9+rng.Float64()*0.1)
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), attrs)
		}
	}
	return g
}

// randomPathQuery builds a small connected query whose edges carry
// multi-hop-friendly delay windows plus occasional bandwidth and
// availability floors.
func randomPathQuery(rng *rand.Rand, directed bool, nq int) *graph.Graph {
	q := graph.New(directed)
	for i := 0; i < nq; i++ {
		q.AddNode(fmt.Sprintf("q%d", i), nil)
	}
	window := func() graph.Attrs {
		attrs := graph.Attrs{}
		// Windows spanning 1-3 hop composed delays of the 5..15ms host
		// edges; occasionally lower-bounded so single hops are excluded.
		lo := rng.Float64() * 20
		attrs = attrs.SetNum("minDelay", lo).SetNum("maxDelay", lo+10+rng.Float64()*30)
		if rng.Float64() < 0.4 {
			attrs = attrs.SetNum("minBandwidth", 10+rng.Float64()*40)
		}
		if rng.Float64() < 0.3 {
			attrs = attrs.SetNum("minAvailability", 0.8+rng.Float64()*0.1)
		}
		return attrs
	}
	for i := 1; i < nq; i++ {
		u, v := graph.NodeID(rng.Intn(i)), graph.NodeID(i)
		if directed && rng.Float64() < 0.5 {
			u, v = v, u
		}
		q.MustAddEdge(u, v, window())
	}
	if nq > 2 && rng.Float64() < 0.5 {
		q.AddEdge(0, graph.NodeID(nq-1), window())
	}
	return q
}

// pathMetricVariants returns the metric-spec sets the equivalence suite
// sweeps: the default single delay window, and a three-way conjunction
// adding bottleneck bandwidth (missing attribute disqualifies) and
// multiplicative availability.
func pathMetricVariants() [][]MetricSpec {
	return [][]MetricSpec{
		nil, // default: additive avgDelay in [minDelay, maxDelay]
		{
			DefaultDelaySpec("avgDelay", "minDelay", "maxDelay"),
			{Attr: "bandwidth", Rule: Bottleneck, LoAttr: "minBandwidth", MissingFails: true},
			{Attr: "availability", Rule: Multiplicative, LoAttr: "minAvailability", MissingEdge: 1},
		},
	}
}

// pathOracle is the reference PathEmbed is pinned to. It enumerates the
// injective node maps in pathOrder's lexicographic order (hosts
// ascending at every place), keeps those nodeOK accepts, and gives every
// query edge the first PathsWithin path from its source's image to its
// target's that passes pathMetricsOK, memoised per (query edge, source,
// target) — the witness rule PathEmbed follows. A partial map is
// abandoned as soon as an edge between placed nodes has no witness. It
// honours MaxSolutions and nothing else: no reachability rows, metric
// bounds, domains or index.
func pathOracle(p *Problem, opt PathOptions) *PathResult {
	opt.applyDefaults()
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	type witKey struct {
		edge     graph.EdgeID
		src, dst graph.NodeID
	}
	memo := map[witKey]*graph.Path{} // nil: no witness
	witness := func(e graph.EdgeID, m Mapping) *graph.Path {
		qe := p.Query.Edge(e)
		k := witKey{e, m[qe.From], m[qe.To]}
		if w, ok := memo[k]; ok {
			return w
		}
		var w *graph.Path
		p.Host.PathsWithin(k.src, k.dst, opt.MaxHops, func(path graph.Path) bool {
			if !pathMetricsOK(p.Host, qe, path.Edges, opt.Metrics) {
				return true
			}
			w = &path
			return false
		})
		memo[k] = w
		return w
	}
	res := &PathResult{}
	order := pathOrder(p.Query)
	m := make(Mapping, nq)
	for i := range m {
		m[i] = -1
	}
	used := make([]bool, nr)
	capped := false
	var rec func(d int)
	rec = func(d int) {
		if d == nq {
			sol := PathSolution{Nodes: m.Clone(), Paths: map[graph.EdgeID]graph.Path{}}
			for e := graph.EdgeID(0); int(e) < p.Query.NumEdges(); e++ {
				sol.Paths[e] = *witness(e, m)
			}
			res.Solutions = append(res.Solutions, sol)
			capped = opt.MaxSolutions > 0 && len(res.Solutions) >= opt.MaxSolutions
			return
		}
		q := order[d]
		for r := graph.NodeID(0); int(r) < nr && !capped; r++ {
			if used[r] || !p.nodeOK(q, r) {
				continue
			}
			m[q] = r
			ok := true
			for e := graph.EdgeID(0); int(e) < p.Query.NumEdges() && ok; e++ {
				qe := p.Query.Edge(e)
				if (qe.From == q || qe.To == q) && m[qe.From] >= 0 && m[qe.To] >= 0 {
					ok = witness(e, m) != nil
				}
			}
			if ok {
				used[r] = true
				rec(d + 1)
				used[r] = false
			}
		}
		m[q] = -1
	}
	rec(0)
	res.Exhausted = !capped
	res.Status = classify(res.Exhausted, len(res.Solutions))
	return res
}

// samePathResults asserts two runs produced identical solution
// sequences: node mappings AND witness paths, element by element.
func samePathResults(t *testing.T, label string, want, got *PathResult) {
	t.Helper()
	if want.Status != got.Status || want.Exhausted != got.Exhausted {
		t.Fatalf("%s: status %v/%v vs %v/%v", label, want.Status, want.Exhausted, got.Status, got.Exhausted)
	}
	if len(want.Solutions) != len(got.Solutions) {
		t.Fatalf("%s: %d vs %d solutions", label, len(want.Solutions), len(got.Solutions))
	}
	for i := range want.Solutions {
		ws, gs := want.Solutions[i], got.Solutions[i]
		if !slices.Equal(ws.Nodes, gs.Nodes) {
			t.Fatalf("%s: solution %d nodes %v vs %v", label, i, ws.Nodes, gs.Nodes)
		}
		if len(ws.Paths) != len(gs.Paths) {
			t.Fatalf("%s: solution %d has %d vs %d witness paths", label, i, len(ws.Paths), len(gs.Paths))
		}
		for e, wp := range ws.Paths {
			gp, ok := gs.Paths[e]
			if !ok || !slices.Equal(wp.Nodes, gp.Nodes) {
				t.Fatalf("%s: solution %d edge %d witness %v vs %v", label, i, e, wp.Nodes, gp.Nodes)
			}
		}
	}
}

// checkPathEquivalence runs PathEmbed and the oracle over one (problem,
// options) point, pins sequence equality, and verifies every solution
// independently.
func checkPathEquivalence(t *testing.T, label string, p *Problem, opt PathOptions) {
	t.Helper()
	got := PathEmbed(p, opt)
	samePathResults(t, label, pathOracle(p, opt), got)
	for i, sol := range got.Solutions {
		if err := VerifyPathSolution(p, opt, sol); err != nil {
			t.Fatalf("%s: solution %d invalid: %v", label, i, err)
		}
	}
}

// TestPathFCEquivalenceRandom is the headline property test: across
// random directed and undirected instances, hop bounds, metric-spec
// conjunctions and MaxSolutions caps, PathEmbed enumerates exactly the
// oracle's solution sequence.
func TestPathFCEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 18
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		directed := trial%3 == 2
		host := randomPathHost(rng, directed, 8+rng.Intn(10), 0.25+rng.Float64()*0.3)
		query := randomPathQuery(rng, directed, 2+rng.Intn(3))
		p, err := NewProblem(query, host, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, metrics := range pathMetricVariants() {
			for _, maxHops := range []int{1, 2, 3} {
				for _, cap := range []int{0, 3} {
					opt := PathOptions{MaxHops: maxHops, Metrics: metrics, MaxSolutions: cap}
					label := fmt.Sprintf("trial=%d dir=%v hops=%d cap=%d metrics=%d",
						trial, directed, maxHops, cap, len(metrics))
					checkPathEquivalence(t, label, p, opt)
				}
			}
		}
	}
}

// TestPathFCEquivalenceWithNodeConstraint adds a node-constraint program
// so the FC base domains actually filter.
func TestPathFCEquivalenceWithNodeConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		host := randomPathHost(rng, false, 10+rng.Intn(6), 0.35)
		query := randomPathQuery(rng, false, 3)
		query.Node(0).Attrs = query.Node(0).Attrs.SetNum("cpu", 2)
		nodeC := expr.MustCompile("!has(vNode.cpu) || (has(rNode.cpu) && rNode.cpu >= vNode.cpu)")
		p, err := NewProblem(query, host, nil, nodeC)
		if err != nil {
			t.Fatal(err)
		}
		checkPathEquivalence(t, fmt.Sprintf("nodeC trial=%d", trial), p, PathOptions{MaxHops: 2})
	}
}

// TestPathFCEquivalenceAcrossDeltas pins the reachability oracle's
// invalidation: the index snapshot is patched through a chain of
// structural and attribute deltas, and after each publish PathEmbed
// (reading the patched index's reach rows) must still match the oracle
// run against the same new graph.
func TestPathFCEquivalenceAcrossDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	host := randomPathHost(rng, false, 12, 0.3)
	query := randomPathQuery(rng, false, 3)
	ix := index.Build(host, 1, index.Config{})

	deltas := []*graph.Delta{
		{AddEdges: []graph.EdgeSpec{{Source: "h0", Target: "h7",
			Attrs: graph.Attrs{}.SetNum("avgDelay", 6).SetNum("bandwidth", 80).SetNum("availability", 0.99)}}},
		{SetEdgeAttrs: []graph.EdgeAttrUpdate{{Source: "h0", Target: "h7",
			Set: graph.Attrs{}.SetNum("avgDelay", 25)}}},
		{RemoveEdges: []graph.EdgeRef{{Source: "h0", Target: "h7"}}},
	}
	version := uint64(1)
	for step := -1; step < len(deltas); step++ {
		if step >= 0 {
			next, err := host.ApplyDelta(deltas[step])
			if err != nil {
				// The random host may already hold edge h0-h7; retarget by
				// skipping the add (the remaining steps still exercise
				// attr and removal invalidation).
				t.Logf("delta %d skipped: %v", step, err)
				continue
			}
			version++
			ix = ix.Apply(host, next, deltas[step], version)
			host = next
		}
		p, err := NewProblem(query, host, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxHops := range []int{2, 3} {
			opt := PathOptions{MaxHops: maxHops, Index: ix}
			checkPathEquivalence(t, fmt.Sprintf("delta step=%d hops=%d", step, maxHops), p, opt)
		}
	}
}

// TestPathFCEquivalenceNegativeMetricValues pins the bound tiers'
// soundness guard: clamped floors/distances are not lower bounds when an
// edge carries a negative metric value, so PathEmbed must disable them
// (not prune) and still match the oracle exactly.
func TestPathFCEquivalenceNegativeMetricValues(t *testing.T) {
	host := graph.NewUndirected()
	host.AddNodes(4)
	host.MustAddEdge(0, 1, graph.Attrs{}.SetNum("avgDelay", -2))
	host.MustAddEdge(1, 2, graph.Attrs{}.SetNum("avgDelay", 3))
	host.MustAddEdge(2, 3, graph.Attrs{}.SetNum("avgDelay", -4))
	q := graph.NewUndirected()
	q.AddNodes(2)
	// Window entirely below zero: only negative compositions qualify,
	// which a clamped-at-zero bound would "prove" impossible.
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("maxDelay", -1))
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxHops := range []int{1, 2, 3} {
		checkPathEquivalence(t, fmt.Sprintf("negative hops=%d", maxHops), p, PathOptions{MaxHops: maxHops})
	}
	res := PathEmbed(p, PathOptions{MaxHops: 1})
	if len(res.Solutions) == 0 {
		t.Fatal("negative-delay witnesses must be found (bounds wrongly engaged)")
	}
}

// TestPathEmbedHugeMaxHops pins the reachability oracle's fixed-point
// convergence: an absurd client-supplied hop bound must neither allocate
// per-hop tables nor change the answer beyond the n-1 simple-path limit.
func TestPathEmbedHugeMaxHops(t *testing.T) {
	host := pathHost()
	q := graph.NewUndirected()
	q.AddNodes(2)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 25).SetNum("maxDelay", 35))
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := PathEmbed(p, PathOptions{MaxHops: 3})
	done := make(chan *PathResult, 1)
	go func() { done <- PathEmbed(p, PathOptions{MaxHops: 1 << 30}) }()
	select {
	case got := <-done:
		samePathResults(t, "huge MaxHops", want, got)
	case <-time.After(30 * time.Second):
		t.Fatal("huge MaxHops did not converge")
	}
}

// TestPathEmbedNegativeMaxHopsClamped pins the MaxHops validation fix: a
// negative bound used to slip past applyDefaults (only == 0 was
// defaulted) into an unbounded enumeration; it must now behave exactly
// like the default.
func TestPathEmbedNegativeMaxHopsClamped(t *testing.T) {
	host := pathHost()
	q := graph.NewUndirected()
	q.AddNodes(2)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 25).SetNum("maxDelay", 35))
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := PathEmbed(p, PathOptions{MaxHops: 3})
	got := PathEmbed(p, PathOptions{MaxHops: -4})
	if len(got.Solutions) != len(want.Solutions) || got.Status != want.Status {
		t.Errorf("negative MaxHops: %d solutions (%v), want default behavior %d (%v)",
			len(got.Solutions), got.Status, len(want.Solutions), want.Status)
	}
	for _, sol := range got.Solutions {
		if err := VerifyPathSolution(p, PathOptions{MaxHops: 3}, sol); err != nil {
			t.Error(err)
		}
	}
	checkPathEquivalence(t, "negative MaxHops", p, PathOptions{MaxHops: -4})
}

// adversarialDenseHost is a large clique whose per-pair simple-path
// enumeration is combinatorially huge — the worst case for a witness DFS
// that cannot be canceled mid-flight.
func adversarialDenseHost(n int) *graph.Graph {
	g := graph.NewUndirected()
	g.AddNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("avgDelay", 10))
		}
	}
	return g
}

// TestPathEmbedCancellationLatency is the regression test for the
// uncancellable inner DFS: on a dense host where a single witness
// enumeration visits hundreds of millions of paths, flipping the Stop
// hook must return the search promptly — the old code only polled the
// clock *between* witness probes and kept burning CPU inside the
// enumeration, violating the job engine's cancellation guarantee.
func TestPathEmbedCancellationLatency(t *testing.T) {
	host := adversarialDenseHost(40)
	q := graph.NewUndirected()
	q.AddNodes(2)
	// Unsatisfiable window: every path is enumerated, none accepted.
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 1e9).SetNum("maxDelay", 2e9))
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	done := make(chan *PathResult, 1)
	go func() {
		done <- PathEmbed(p, PathOptions{
			MaxHops: 6, // ~38*37*36*35*34 ≈ 6e7 simple paths per pair probe
			Stop:    stop.Load,
		})
	}()
	time.Sleep(50 * time.Millisecond)
	canceledAt := time.Now()
	stop.Store(true)
	select {
	case res := <-done:
		if latency := time.Since(canceledAt); latency > 2*time.Second {
			t.Errorf("cancellation latency %v, want well under 2s", latency)
		}
		if res.Exhausted || len(res.Solutions) != 0 {
			t.Errorf("canceled run reported %v/%d solutions", res.Exhausted, len(res.Solutions))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled search never returned — inner DFS is not cancellable")
	}
}

// TestPathFCStatsCounters checks the new observability counters fire on a
// workload shaped to hit each layer: shared windows (memo hits), an
// unreachable far side (reach prunes) and real enumerations (probes).
func TestPathFCStatsCounters(t *testing.T) {
	// Two 4-cliques joined by nothing: cross-component pairs are pruned
	// by reachability alone.
	g := graph.NewUndirected()
	g.AddNodes(8)
	for base := 0; base < 8; base += 4 {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("avgDelay", 10))
			}
		}
	}
	q := graph.NewUndirected()
	q.AddNodes(3)
	win := graph.Attrs{}.SetNum("minDelay", 15).SetNum("maxDelay", 25)
	q.MustAddEdge(0, 1, win)
	q.MustAddEdge(1, 2, win)
	p, err := NewProblem(q, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := PathEmbed(p, PathOptions{MaxHops: 2})
	if len(res.Solutions) == 0 {
		t.Fatal("expected 2-hop solutions inside each clique")
	}
	st := res.Stats
	if st.WitnessProbes == 0 || st.WitnessHits == 0 || st.PruneOps == 0 {
		t.Errorf("stats = probes %d, hits %d, pruneOps %d; want all > 0",
			st.WitnessProbes, st.WitnessHits, st.PruneOps)
	}
	for _, sol := range res.Solutions {
		if err := VerifyPathSolution(p, PathOptions{MaxHops: 2}, sol); err != nil {
			t.Error(err)
		}
	}

	// A query edge whose delay floor exceeds any reachable composition:
	// the optimistic bound rejects every pair... the floor is a lower
	// bound, which the Dijkstra bound does not cover, so use a ceiling
	// below the cheapest edge instead.
	q2 := graph.NewUndirected()
	q2.AddNodes(2)
	q2.MustAddEdge(0, 1, graph.Attrs{}.SetNum("maxDelay", 5))
	p2, err := NewProblem(q2, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2 := PathEmbed(p2, PathOptions{MaxHops: 2})
	if len(res2.Solutions) != 0 {
		t.Fatal("sub-floor window should be infeasible")
	}
	if res2.Stats.ReachPrunes == 0 {
		t.Errorf("bound/reach prunes = %d, want > 0", res2.Stats.ReachPrunes)
	}
	if res2.Stats.WitnessProbes != 0 {
		t.Errorf("witness probes = %d, want 0 (every pair bound-pruned)", res2.Stats.WitnessProbes)
	}
}

// TestVerifyPathSolutionReportsFailingSpec pins the error-reporting fix:
// when a non-first metric spec fails, the error names that spec's
// attribute and composed value instead of Metrics[0]'s.
func TestVerifyPathSolutionReportsFailingSpec(t *testing.T) {
	host := graph.NewUndirected()
	host.AddNodes(2)
	host.MustAddEdge(0, 1, graph.Attrs{}.SetNum("avgDelay", 10).SetNum("bandwidth", 5))
	q := graph.NewUndirected()
	q.AddNodes(2)
	q.MustAddEdge(0, 1, graph.Attrs{}.
		SetNum("minDelay", 5).SetNum("maxDelay", 15). // delay window satisfied
		SetNum("minBandwidth", 50))                   // bandwidth floor violated
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := PathOptions{
		MaxHops: 1,
		Metrics: []MetricSpec{
			DefaultDelaySpec("avgDelay", "minDelay", "maxDelay"),
			{Attr: "bandwidth", Rule: Bottleneck, LoAttr: "minBandwidth", MissingFails: true},
		},
	}
	sol := PathSolution{
		Nodes: Mapping{0, 1},
		Paths: map[graph.EdgeID]graph.Path{0: {Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{0}}},
	}
	err = VerifyPathSolution(p, opt, sol)
	if err == nil {
		t.Fatal("bandwidth-violating witness accepted")
	}
	if !strings.Contains(err.Error(), "bandwidth") || !strings.Contains(err.Error(), "5.00") {
		t.Errorf("error %q does not name the failing spec's attribute and value", err)
	}
	if strings.Contains(err.Error(), "avgDelay") {
		t.Errorf("error %q blames the passing first spec", err)
	}
}

// TestPathEmbedIgnoresIndexOfSameSizedGraph: the reachability rows come
// from PathOptions.Index only when it was built over the problem's host,
// never because its size matches. On the 4-node path host every ordered
// pair of hosts lies within 3 hops, so the one-edge query has 12
// embeddings; the index of a 4-node graph with the single edge 0–1 would
// prune all but 2 of them and still report the run complete.
func TestPathEmbedIgnoresIndexOfSameSizedGraph(t *testing.T) {
	host := graph.NewUndirected()
	host.AddNodes(4)
	for r := graph.NodeID(0); r < 3; r++ {
		host.MustAddEdge(r, r+1, nil)
	}
	other := graph.NewUndirected()
	other.AddNodes(4)
	other.MustAddEdge(0, 1, nil)
	q := graph.NewUndirected()
	q.AddNodes(2)
	q.MustAddEdge(0, 1, nil)
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := PathEmbed(p, PathOptions{MaxHops: 3})
	if len(want.Solutions) != 12 || want.Status != StatusComplete {
		t.Fatalf("index-less run: %d solutions (%v), want a complete 12", len(want.Solutions), want.Status)
	}
	got := PathEmbed(p, PathOptions{MaxHops: 3, Index: index.Build(other, 1, index.Config{})})
	samePathResults(t, "same-sized foreign index", want, got)
}
