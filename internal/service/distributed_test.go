package service

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// federationHost builds a host with two well-connected regions joined by
// a few slow links: intra-region delays ~10ms, inter-region ~200ms. Nodes
// n0..n4 are west, n5..n9 east; the cut edges are n0-n5 and n1-n6.
func federationHost() *graph.Graph {
	g := graph.NewUndirected()
	attrs := func(d float64) graph.Attrs {
		return graph.Attrs{}.
			SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.1)
	}
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", "west"))
	}
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", "east"))
	}
	// Intra-region cliques at ~10ms.
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			g.MustAddEdge(graph.NodeID(a), graph.NodeID(b), attrs(10))
			g.MustAddEdge(graph.NodeID(5+a), graph.NodeID(5+b), attrs(10))
		}
	}
	// Sparse inter-region links at ~200ms.
	g.MustAddEdge(0, 5, attrs(200))
	g.MustAddEdge(1, 6, attrs(200))
	return g
}

const avgDelayWindowSrc = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

// namedToMapping reconstructs a core.Mapping against the global host from
// a coordinator answer's authoritative named mapping, so it can be
// verified with core.NewProblem(query, host, ...).Verify.
func namedToMapping(t *testing.T, q, host *graph.Graph, named NamedMapping) core.Mapping {
	t.Helper()
	m := make(core.Mapping, q.NumNodes())
	for i := 0; i < q.NumNodes(); i++ {
		qName := q.Node(graph.NodeID(i)).Name
		rName, ok := named[qName]
		if !ok {
			t.Fatalf("named mapping misses query node %q", qName)
		}
		rid, ok := host.NodeByName(rName)
		if !ok {
			t.Fatalf("named mapping targets unknown host node %q", rName)
		}
		m[i] = rid
	}
	return m
}

func TestFederationPartitions(t *testing.T) {
	f, err := NewFederation(federationHost(), "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	shards := f.Shards()
	if len(shards) != 2 {
		t.Fatalf("shards = %v", shards)
	}
	if _, err := NewFederation(nil, "region", Config{}); err == nil {
		t.Error("nil host accepted")
	}
	// Nodes without the attribute form the "unassigned" shard.
	h := topo.Ring(3)
	f2, err := NewFederation(h, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Shards(); len(got) != 1 || got[0] != "unassigned" {
		t.Errorf("unattributed shards = %v", got)
	}
	// The coordinator's routing table covers every node; the boundary is
	// exactly the inter-region links; the coordinator holds no graph.
	info := f.Cluster()
	if info.RoutedNodes != 10 {
		t.Errorf("routed nodes = %d, want 10", info.RoutedNodes)
	}
	if info.BoundaryEdges != 2 {
		t.Errorf("boundary edges = %d, want 2", info.BoundaryEdges)
	}
	if info.CoordinatorNodes != 0 {
		t.Errorf("coordinator models %d nodes, want 0 (no global copy)", info.CoordinatorNodes)
	}
	total := 0
	for _, s := range info.Shards {
		total += s.NodeCount
	}
	if total != 10 {
		t.Errorf("shard node counts sum to %d, want 10", total)
	}
}

func TestRemainingBudget(t *testing.T) {
	for _, tc := range []struct {
		timeout, elapsed, want time.Duration
	}{
		{time.Second, 0, time.Second},                                 // nothing consumed: full budget
		{time.Second, 300 * time.Millisecond, 700 * time.Millisecond}, // shard round spent 300ms
		{time.Second, 2 * time.Second, time.Millisecond},              // overrun: token floor
		{400 * time.Millisecond, time.Millisecond, 399 * time.Millisecond},
	} {
		if got := remainingBudget(tc.timeout, tc.elapsed); got != tc.want {
			t.Errorf("remainingBudget(%v, %v) = %v, want %v", tc.timeout, tc.elapsed, got, tc.want)
		}
	}
}

func TestFederationAnswersLocallyWhenPossible(t *testing.T) {
	host := federationHost()
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A fast triangle fits entirely inside one region.
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 20)
	resp, where, err := f.Embed(Request{
		Query:          q,
		EdgeConstraint: avgDelayWindowSrc,
		MaxResults:     1,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if where != "west" && where != "east" {
		t.Errorf("regional query answered by %q, want a single shard", where)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no mapping")
	}
	// The translated mapping must verify against the *global* host.
	prog := expr.MustCompile(avgDelayWindowSrc)
	p, err := core.NewProblem(q, host, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(resp.Mappings[0]); err != nil {
		t.Fatalf("shard mapping invalid globally: %v", err)
	}
	// Named mapping uses global node names.
	for _, rName := range resp.Named[0] {
		if _, ok := host.NodeByName(rName); !ok {
			t.Errorf("unknown global node %q in named mapping", rName)
		}
	}
}

func TestCoordinatorDecomposesCrossRegionQuery(t *testing.T) {
	host := federationHost()
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A query needing one slow (~200ms) link can only span regions: no
	// shard's partial view contains any qualifying edge, so the answer
	// must come from cut-edge decomposition.
	q := topo.Line(2)
	topo.SetDelayWindow(q, 150, 250)
	resp, where, err := f.Embed(Request{
		Query:          q,
		EdgeConstraint: avgDelayWindowSrc,
		MaxResults:     1,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(where, "cross:") {
		t.Fatalf("cross-region query answered by %q, want cross:...", where)
	}
	if len(resp.Named) == 0 {
		t.Fatal("decomposition found nothing")
	}
	// The stitched answer must verify edge-by-edge against the global
	// host — the coordinator never saw that graph.
	prog := expr.MustCompile(avgDelayWindowSrc)
	p, err := core.NewProblem(q, host, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(namedToMapping(t, q, host, resp.Named[0])); err != nil {
		t.Fatalf("stitched mapping invalid globally: %v", err)
	}
	if f.Cluster().CrossEmbeds != 1 {
		t.Errorf("crossEmbeds = %d, want 1", f.Cluster().CrossEmbeds)
	}
}

func TestCoordinatorRejectsInfeasibleSpanningQuery(t *testing.T) {
	host := federationHost()
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 7 nodes exceed every 5-node region, and the 1-50ms window rules out
	// the 200ms cut edges — the frontier allow-sets must empty on every
	// split without burning shard budget.
	q := topo.Line(7)
	topo.SetDelayWindow(q, 1, 50)
	start := time.Now()
	resp, where, err := f.Embed(Request{
		Query:          q,
		EdgeConstraint: avgDelayWindowSrc,
		MaxResults:     1,
		Timeout:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if where != "coordinator" {
		t.Errorf("infeasible spanning query answered by %q", where)
	}
	if resp.Status != core.StatusInconclusive {
		t.Errorf("status = %v, want inconclusive", resp.Status)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("took %v; rejection at the frontier should not burn the budget", elapsed)
	}
	// All 126 bipartitions die at the frontier — their cut edges' tables
	// are empty, each built once per query edge and shared by every split —
	// so no shard is asked for a fragment.
	if span := f.Cluster().Spanning; span.FrontierEmpty != 1 || span.FragmentRoundTrips != 0 {
		t.Errorf("spanning = %+v, want one frontierEmpty request and no fragment round trip", span)
	}
}

func TestCoordinatorSplitCapWarns(t *testing.T) {
	// 26 singleton regions: every shard is smaller than the query and the
	// unlabeled bipartition enumeration is capped well below 14 nodes, so
	// the coordinator must give up quickly — with a warning — instead of
	// enumerating 2^14 splits.
	const n = 26
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", string(rune('A'+i))))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), nil)
		}
	}
	f, err := NewFederation(g, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, where, err := f.Embed(Request{Query: topo.Clique(14), Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if where != "coordinator" {
		t.Fatalf("answered by %q, want coordinator", where)
	}
	if resp.Status != core.StatusInconclusive {
		t.Errorf("status = %v, want inconclusive", resp.Status)
	}
	capped := false
	for _, w := range resp.Warnings {
		if strings.Contains(w, "capped") {
			capped = true
		}
	}
	if !capped {
		t.Errorf("no split-cap warning in %v", resp.Warnings)
	}
}

// failShard implements Shard and fails every Embed — the injected fault
// for the skip-on-error regression test.
type failShard struct {
	name   string
	embeds atomic.Int64
}

func (s *failShard) Name() string      { return s.name }
func (s *failShard) Regions() []string { return []string{s.name} }
func (s *failShard) NodeCount() int    { return 100 }
func (s *failShard) Stats() (ShardStats, error) {
	return ShardStats{Name: s.name, Regions: []string{s.name}, NodeCount: 100, MaxDegree: 99}, nil
}
func (s *failShard) NodeNames() ([]string, uint64, error) { return nil, 1, nil }
func (s *failShard) Embed(req Request) (*Response, error) {
	s.embeds.Add(1)
	return nil, errors.New("injected shard failure")
}
func (s *failShard) ApplyDelta(d *graph.Delta) (uint64, error) {
	return 0, errors.New("injected shard failure")
}

// TestCoordinatorSkipsErroringShard is the regression test for the old
// Federation aborting on the first shard error: a failing shard must be
// skipped (and recorded) while the remaining shards still answer.
func TestCoordinatorSkipsErroringShard(t *testing.T) {
	bad := &failShard{name: "flaky"}
	host := topo.Clique(5)
	topo.SetDelayWindow(host, 5, 20)
	good := NewLocalShard("good", []string{"good"}, New(NewModel(host), Config{}))
	// The failing shard reports the larger view, so routing order tries it
	// first — exactly the case the old code aborted on.
	f, err := NewCoordinator([]Shard{bad, good}, CoordinatorConfig{RegionAttr: "region"})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Shards(); got[0] != "flaky" {
		t.Fatalf("routing order = %v, want flaky first", got)
	}
	q := topo.Clique(3)
	resp, where, err := f.Embed(Request{Query: q, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if where != "good" {
		t.Fatalf("answered by %q, want good", where)
	}
	if len(resp.Named) == 0 {
		t.Fatal("no mapping from the healthy shard")
	}
	var flaky ClusterShardInfo
	for _, s := range f.Cluster().Shards {
		if s.Name == "flaky" {
			flaky = s
		}
	}
	if flaky.Errors == 0 {
		t.Error("shard failure not recorded in the error counter")
	}
	if flaky.LastError == "" {
		t.Error("shard failure detail not recorded")
	}
	// Repeated failures mark the shard unhealthy and stop routing to it.
	for i := 0; i < 5; i++ {
		if _, _, err := f.Embed(Request{Query: q, Timeout: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range f.Cluster().Shards {
		if s.Name == "flaky" && s.Healthy {
			t.Error("shard still healthy after repeated failures")
		}
	}
	calls := bad.embeds.Load()
	if _, _, err := f.Embed(Request{Query: q, Timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if bad.embeds.Load() != calls {
		t.Error("unhealthy shard still receives embed traffic")
	}
}

// countingShard wraps a Shard and counts Embed calls.
type countingShard struct {
	Shard
	embeds atomic.Int64
}

func (s *countingShard) Embed(req Request) (*Response, error) {
	s.embeds.Add(1)
	return s.Shard.Embed(req)
}

// TestCoordinatorDegreeScreenSkipsSparseShard pins the eligibility
// screen's degree stratum: a 40-node ring (max degree 2) can never host a
// 4-clique (min degree 3), so the coordinator must not spend any of the
// timeout budget asking it.
func TestCoordinatorDegreeScreenSkipsSparseShard(t *testing.T) {
	sparse := &countingShard{Shard: NewLocalShard("sparse", []string{"sparse"},
		New(NewModel(topo.Ring(40)), Config{}))}
	dense := NewLocalShard("dense", []string{"dense"},
		New(NewModel(topo.Clique(6)), Config{}))
	f, err := NewCoordinator([]Shard{sparse, dense}, CoordinatorConfig{RegionAttr: "region"})
	if err != nil {
		t.Fatal(err)
	}
	// The sparse shard is 40 nodes to dense's 6: it leads the routing
	// order, so only the degree screen keeps it out of the query path.
	if got := f.Shards(); got[0] != "sparse" {
		t.Fatalf("routing order = %v, want sparse first", got)
	}
	resp, where, err := f.Embed(Request{Query: topo.Clique(4), Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if where != "dense" {
		t.Fatalf("answered by %q, want dense", where)
	}
	if len(resp.Named) == 0 {
		t.Fatal("no mapping")
	}
	if n := sparse.embeds.Load(); n != 0 {
		t.Errorf("sparse shard got %d embed calls; the degree screen should skip it", n)
	}
	// The ring still serves queries it could host.
	if _, where, err := f.Embed(Request{Query: topo.Line(12), Timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	} else if where != "sparse" {
		t.Errorf("12-path answered by %q, want sparse", where)
	}
	if sparse.embeds.Load() == 0 {
		t.Error("sparse shard never consulted for a feasible query")
	}
}

func TestCoordinatorDeltaRouting(t *testing.T) {
	f, err := NewFederation(federationHost(), "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]uint64{}
	for _, s := range f.Cluster().Shards {
		baseline[s.Name] = s.ModelVersion
	}

	// An attribute touch on a west node must reach the west shard only.
	versions, err := f.ApplyDelta(&graph.Delta{
		SetNodeAttrs: []graph.NodeAttrUpdate{{Node: "n2", Set: graph.Attrs{}.SetNum("cpu", 4)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		t.Fatalf("delta touched shards %v, want west only", versions)
	}
	if v, ok := versions["west"]; !ok || v <= baseline["west"] {
		t.Fatalf("west version = %v (baseline %d)", versions, baseline["west"])
	}
	for _, s := range f.Cluster().Shards {
		if s.Name == "east" && s.ModelVersion != baseline["east"] {
			t.Errorf("east version moved to %d on a west-only delta", s.ModelVersion)
		}
	}

	// A labeled node addition routes by region; a labeled edge between two
	// east nodes stays in east.
	versions, err = f.ApplyDelta(&graph.Delta{
		AddNodes: []graph.NodeSpec{{Name: "n10", Attrs: graph.Attrs{}.SetStr("region", "east")}},
		AddEdges: []graph.EdgeSpec{{Source: "n10", Target: "n7", Attrs: graph.Attrs{}.SetNum("avgDelay", 10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := versions["east"]; !ok || len(versions) != 1 {
		t.Fatalf("east-labeled addition touched %v", versions)
	}
	if got := f.Cluster().RoutedNodes; got != 11 {
		t.Errorf("routed nodes = %d, want 11", got)
	}

	// A new inter-region edge lands in the coordinator's boundary set, not
	// in any shard.
	before := f.Cluster().BoundaryEdges
	versions, err = f.ApplyDelta(&graph.Delta{
		AddEdges: []graph.EdgeSpec{{Source: "n2", Target: "n7", Attrs: graph.Attrs{}.SetNum("avgDelay", 180)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 0 {
		t.Errorf("cut-edge addition propagated to shards %v", versions)
	}
	if got := f.Cluster().BoundaryEdges; got != before+1 {
		t.Errorf("boundary edges = %d, want %d", got, before+1)
	}
	// ... and removing it shrinks the boundary again.
	if _, err := f.ApplyDelta(&graph.Delta{
		RemoveEdges: []graph.EdgeRef{{Source: "n2", Target: "n7"}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.Cluster().BoundaryEdges; got != before {
		t.Errorf("boundary edges = %d after cut removal, want %d", got, before)
	}

	// Unknown names are the 409 class.
	if _, err := f.ApplyDelta(&graph.Delta{RemoveNodes: []string{"ghost"}}); !errors.Is(err, ErrStaleRouting) {
		t.Errorf("unrouted name: err = %v, want ErrStaleRouting", err)
	}
}

// spanningPair is the smallest region-pinned spanning query: one edge from
// a west node to an east node that only a ~200ms cut edge can carry.
func spanningPair() *graph.Graph {
	q := graph.NewUndirected()
	a := q.AddNode("a", graph.Attrs{}.SetStr("region", "west"))
	b := q.AddNode("b", graph.Attrs{}.SetStr("region", "east"))
	q.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 150).SetNum("maxDelay", 250))
	return q
}

// TestBoundaryViewFollowsDeltas: the cached boundary view is never stale.
// Moving the cut edges' delays out of the query's window makes the very
// next spanning request fail at the frontier, moving one back answers it
// again on exactly that edge; each such delta, a cut-edge add, a cut-edge
// remove and a RefreshRoutes install one fresh view each.
func TestBoundaryViewFollowsDeltas(t *testing.T) {
	f, err := NewFederation(federationHost(), "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	builds := func() uint64 { return f.Cluster().Spanning.BoundaryViewBuilds }
	embed := func() (NamedMapping, string) {
		t.Helper()
		resp, where, err := f.Embed(Request{Query: spanningPair(), EdgeConstraint: avgDelayWindowSrc, MaxResults: 1, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Named) == 0 {
			return nil, where
		}
		return resp.Named[0], where
	}
	retune := func(source, target string, delay float64) graph.EdgeAttrUpdate {
		return graph.EdgeAttrUpdate{Source: source, Target: target, Set: graph.Attrs{}.SetNum("avgDelay", delay)}
	}
	step := func(what string, d *graph.Delta) {
		t.Helper()
		before := builds()
		if d == nil {
			f.RefreshRoutes()
		} else if _, err := f.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if got := builds() - before; got != 1 {
			t.Errorf("%s installed %d boundary views, want exactly 1", what, got)
		}
	}

	if builds() != 1 {
		t.Fatalf("boot built %d views, want 1", builds())
	}
	if m, where := embed(); m == nil || where != "cross:east+west" {
		t.Fatalf("baseline: %v from %q", m, where)
	}
	step("retuning both cut edges", &graph.Delta{SetEdgeAttrs: []graph.EdgeAttrUpdate{retune("n0", "n5", 500), retune("n1", "n6", 500)}})
	if m, where := embed(); m != nil {
		t.Fatalf("both cut edges at 500ms, still answered %v from %q", m, where)
	}
	step("retuning one cut edge back", &graph.Delta{SetEdgeAttrs: []graph.EdgeAttrUpdate{retune("n6", "n1", 200)}})
	if m, _ := embed(); m["a"] != "n1" || m["b"] != "n6" {
		t.Fatalf("n1-n6 back at 200ms: joined %v, want a on n1 and b on n6", m)
	}
	step("adding a cut edge", &graph.Delta{AddEdges: []graph.EdgeSpec{{Source: "n2", Target: "n7", Attrs: graph.Attrs{}.SetNum("avgDelay", 190)}}})
	step("removing a cut edge", &graph.Delta{RemoveEdges: []graph.EdgeRef{{Source: "n1", Target: "n6"}}})
	if m, _ := embed(); m["a"] != "n2" || m["b"] != "n7" {
		t.Fatalf("only n2-n7 carries 190ms now: joined %v", m)
	}
	step("RefreshRoutes", nil)
	if m, _ := embed(); m["a"] != "n2" || m["b"] != "n7" {
		t.Fatalf("after the refresh: joined %v, want a on n2 and b on n7", m)
	}
	// A delta that touches neither the boundary nor the routes leaves the
	// view alone.
	before := builds()
	if _, err := f.ApplyDelta(&graph.Delta{SetEdgeAttrs: []graph.EdgeAttrUpdate{retune("n2", "n3", 12)}}); err != nil {
		t.Fatal(err)
	}
	if builds() != before {
		t.Errorf("an intra-region delta rebuilt the boundary view")
	}
	if span := f.Cluster().Spanning; span.Answered != 4 || span.FrontierEmpty != 1 {
		t.Errorf("spanning = %+v, want 4 answered and 1 frontierEmpty", span)
	}
}

// gateShard holds Embed calls at a gate while armed.
type gateShard struct {
	Shard
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *gateShard) Embed(req Request) (*Response, error) {
	if s.armed.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.Shard.Embed(req)
}

// TestRequestFinishesOnTheViewItTook: a spanning request that already
// holds a boundary view finishes on it when a delta installs the next one
// mid-join — here the delta removes the only cut edge the request can use,
// and the request, gated inside its first fragment round trip, still
// answers on that edge; the request after it does not.
func TestRequestFinishesOnTheViewItTook(t *testing.T) {
	host := federationHost()
	part, err := graph.PartitionByAttr(host, "region", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []graph.CutEdge
	for _, cut := range part.Cuts {
		if cut.Source == "n0" { // keep n0-n5 only
			cuts = append(cuts, cut)
		}
	}
	west := &gateShard{
		Shard:   NewLocalShard("west", []string{"west"}, New(NewModel(part.Parts["west"]), Config{})),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	east := NewLocalShard("east", []string{"east"}, New(NewModel(part.Parts["east"]), Config{}))
	f, err := NewCoordinator([]Shard{west, east}, CoordinatorConfig{RegionAttr: "region", Boundary: cuts})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Query: spanningPair(), EdgeConstraint: avgDelayWindowSrc, MaxResults: 1, Timeout: 5 * time.Second}

	west.armed.Store(true)
	type answer struct {
		resp  *Response
		where string
	}
	done := make(chan answer)
	go func() {
		resp, where, err := f.Embed(req)
		if err != nil {
			t.Error(err)
		}
		done <- answer{resp, where}
	}()
	<-west.entered // the join holds the old view and waits on its west fragment
	west.armed.Store(false)
	before := f.Cluster().Spanning.BoundaryViewBuilds
	if _, err := f.ApplyDelta(&graph.Delta{RemoveEdges: []graph.EdgeRef{{Source: "n0", Target: "n5"}}}); err != nil {
		t.Fatal(err)
	}
	if info := f.Cluster(); info.BoundaryEdges != 0 || info.Spanning.BoundaryViewBuilds != before+1 {
		t.Fatalf("after the removal: %d boundary edges, %d view builds (was %d)", info.BoundaryEdges, info.Spanning.BoundaryViewBuilds, before)
	}
	close(west.release)
	got := <-done
	if got.where != "cross:east+west" || len(got.resp.Named) != 1 || got.resp.Named[0]["a"] != "n0" || got.resp.Named[0]["b"] != "n5" {
		t.Fatalf("in-flight request answered %v from %q, want a on n0 and b on n5 from the view it took", got.resp.Named, got.where)
	}
	if resp, where, err := f.Embed(req); err != nil || len(resp.Named) != 0 {
		t.Fatalf("with the cut edge gone the next request answered %v from %q (err %v)", resp.Named, where, err)
	}
}

// TestCoordinatorEmbedDeltaRace interleaves Embed traffic with delta
// propagation under -race (mirroring model_apply_test.go): every answer
// must be consistent with either the pre- or the post-delta snapshot —
// never a torn mix.
func TestCoordinatorEmbedDeltaRace(t *testing.T) {
	host := federationHost()
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 20)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var applied atomic.Int64

	wg.Add(1)
	go func() { // delta writer: retunes one west edge in and out of range
		defer wg.Done()
		fast := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			delay := 500.0 // out of every query window
			if fast {
				delay = 10
			}
			_, err := f.ApplyDelta(&graph.Delta{
				SetEdgeAttrs: []graph.EdgeAttrUpdate{{
					Source: "n2", Target: "n3",
					Set: graph.Attrs{}.SetNum("avgDelay", delay),
				}},
			})
			if err != nil {
				t.Error(err)
				return
			}
			fast = !fast
			applied.Add(1)
		}
	}()

	prog := expr.MustCompile(avgDelayWindowSrc)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // embed readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, _, err := f.Embed(Request{
					Query:          q,
					EdgeConstraint: avgDelayWindowSrc,
					MaxResults:     1,
					Timeout:        time.Second,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp.Named) == 0 {
					continue
				}
				// Any answer must verify against SOME consistent host state:
				// the mapping either avoids the retuned edge or uses it at a
				// legal delay. Both host variants are checked; a torn answer
				// (constraint held mid-apply but on no snapshot) fails both.
				mapping := namedToMapping(t, q, host, resp.Named[0])
				okOnSome := false
				for _, delay := range []float64{10, 500, 200} {
					variant := host.Clone()
					u, _ := variant.NodeByName("n2")
					v, _ := variant.NodeByName("n3")
					if e, ok := variant.EdgeBetween(u, v); ok {
						variant.Edge(e).Attrs = variant.Edge(e).Attrs.SetNum("avgDelay", delay)
					}
					p, err := core.NewProblem(q, variant, prog, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if p.Verify(mapping) == nil {
						okOnSome = true
						break
					}
				}
				if !okOnSome {
					t.Errorf("answer %v consistent with no delta snapshot", resp.Named[0])
					return
				}
			}
		}()
	}

	// The same race one level up: a writer swings the n0-n5 cut edge in
	// and out of the spanning query's window — every swing installs a new
	// boundary view — while readers join across it. An answer must ride a
	// cut edge (n0-n5 at a legal delay, or n1-n6, which never moves).
	var crossApplied, crossAnswered atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for delay := 500.0; ; delay = 700 - delay {
			select {
			case <-stop:
				return
			default:
			}
			_, err := f.ApplyDelta(&graph.Delta{SetEdgeAttrs: []graph.EdgeAttrUpdate{{
				Source: "n0", Target: "n5", Set: graph.Attrs{}.SetNum("avgDelay", delay),
			}}})
			if err != nil {
				t.Error(err)
				return
			}
			crossApplied.Add(1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := spanningPair()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, where, err := f.Embed(Request{Query: span, EdgeConstraint: avgDelayWindowSrc, MaxResults: 1, Timeout: time.Second})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp.Named) == 0 {
					continue
				}
				crossAnswered.Add(1)
				m := resp.Named[0]
				if where != "cross:east+west" || !(m["a"] == "n0" && m["b"] == "n5" || m["a"] == "n1" && m["b"] == "n6") {
					t.Errorf("spanning answer %v from %q rides no cut edge", m, where)
					return
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if applied.Load() == 0 || crossApplied.Load() == 0 {
		t.Error("no deltas applied during the race window")
	}
	if crossAnswered.Load() == 0 {
		t.Error("no spanning request was answered during the race window")
	}
}

func TestFederationOnSyntheticTrace(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 80}, rand.New(rand.NewSource(1)))
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Shards()) < 4 {
		t.Fatalf("expected several regional shards, got %v", f.Shards())
	}
	// Intra-site delays live in the low range: a small fast star should
	// be answerable within some region.
	q := topo.Star(3)
	topo.SetDelayWindow(q, 1, 60)
	resp, where, err := f.Embed(Request{
		Query:          q,
		EdgeConstraint: avgDelayWindowSrc,
		MaxResults:     1,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Named) == 0 {
		t.Fatal("no mapping on trace")
	}
	t.Logf("answered by %s", where)
	prog := expr.MustCompile(avgDelayWindowSrc)
	p, err := core.NewProblem(q, host, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(namedToMapping(t, q, host, resp.Named[0])); err != nil {
		t.Fatalf("federated mapping invalid: %v", err)
	}
}

func TestEmbedSymmetricDedupe(t *testing.T) {
	// Two disjoint feasible triangles: 2 node sets × 3! labelings = 12 raw
	// embeddings; symmetry dedupe keeps one per node set.
	host := graph.NewUndirected()
	host.AddNodes(6)
	attrs := func() graph.Attrs {
		return graph.Attrs{}.SetNum("minDelay", 10).SetNum("maxDelay", 20)
	}
	host.MustAddEdge(0, 1, attrs())
	host.MustAddEdge(1, 2, attrs())
	host.MustAddEdge(0, 2, attrs())
	host.MustAddEdge(3, 4, attrs())
	host.MustAddEdge(4, 5, attrs())
	host.MustAddEdge(3, 5, attrs())
	svc := New(NewModel(host), Config{})
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 25)

	raw, err := svc.Embed(Request{Query: q, EdgeConstraint: delayWindowSrc})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Mappings) != 12 {
		t.Fatalf("raw embeddings = %d, want 12", len(raw.Mappings))
	}
	deduped, err := svc.Embed(Request{Query: q, EdgeConstraint: delayWindowSrc, DedupeSymmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(deduped.Mappings) != 2 {
		t.Fatalf("deduped embeddings = %d, want 2", len(deduped.Mappings))
	}
	if len(deduped.Named) != 2 {
		t.Fatalf("named not rebuilt after dedupe: %d", len(deduped.Named))
	}
}

func TestEmbedWarnsOnUnknownHostAttribute(t *testing.T) {
	host := federationHost()
	svc := New(NewModel(host), Config{})
	q := topo.Line(2)
	topo.SetDelayWindow(q, 1, 1000)
	resp, err := svc.Embed(Request{
		Query:          q,
		EdgeConstraint: "rEdge.avgDeley <= vEdge.maxDelay", // typo: Deley
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Warnings) == 0 {
		t.Error("typo'd attribute produced no warning")
	}
	// A correct constraint warns about nothing.
	resp2, err := svc.Embed(Request{
		Query:          q,
		EdgeConstraint: delayWindowSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", resp2.Warnings)
	}
	// The injected reservation guard must not warn.
	resp3, err := svc.Embed(Request{
		Query:           q,
		EdgeConstraint:  delayWindowSrc,
		ExcludeReserved: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp3.Warnings) != 0 {
		t.Errorf("reservation guard warned: %v", resp3.Warnings)
	}
}

// TestCoordinatorJoinsPathModeAcrossShards: path mode rides the same
// boundary join — its cut tables are the boundary graph's reachability
// rows, its confirm step a stitched witness. West w0, w1 and east e0, e1
// are joined by the 10ms cut edges w0-e0, e0-w1, w1-e1 only; a query edge
// from a west node to an east node asking for 25–35ms can only ride the
// three-hop boundary path w0-e0-w1-e1.
func TestCoordinatorJoinsPathModeAcrossShards(t *testing.T) {
	host := graph.NewUndirected()
	for _, n := range []struct{ name, region string }{{"w0", "west"}, {"w1", "west"}, {"e0", "east"}, {"e1", "east"}} {
		host.AddNode(n.name, graph.Attrs{}.SetStr("region", n.region))
	}
	link := func(a, b string, delay float64) {
		u, _ := host.NodeByName(a)
		v, _ := host.NodeByName(b)
		host.MustAddEdge(u, v, graph.Attrs{}.SetNum("avgDelay", delay))
	}
	link("w0", "w1", 1)
	link("e0", "e1", 1)
	link("w0", "e0", 10)
	link("e0", "w1", 10)
	link("w1", "e1", 10)
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NewUndirected()
	a := q.AddNode("a", graph.Attrs{}.SetStr("region", "west"))
	b := q.AddNode("b", graph.Attrs{}.SetStr("region", "east"))
	q.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 25).SetNum("maxDelay", 35))

	resp, where, err := f.Embed(Request{Query: q, Algorithm: AlgoPathEmbed, Path: PathRequestOptions{MaxHops: 3}, MaxResults: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if where != "cross:east+west" || len(resp.Named) != 1 || len(resp.Paths) != 1 || len(resp.Paths[0]) != 1 {
		t.Fatalf("answered by %q: %v with paths %v (%v)", where, resp.Named, resp.Paths, resp.Warnings)
	}
	w := resp.Paths[0][0]
	if got := strings.Join(w.Path, "-"); got != "w0-e0-w1-e1" || w.Cost != 30 || w.Source != "a" || w.Target != "b" {
		t.Errorf("witness %+v, want a→b over w0-e0-w1-e1 at 30ms", w)
	}
	if m := resp.Named[0]; m["a"] != "w0" || m["b"] != "e1" {
		t.Errorf("joined %v, want a on w0 and b on e1", m)
	}
	// Two hops cannot reach 25ms: the reachability rows still pair hosts,
	// the stitched witness refuses every pair, and the join says so.
	resp, where, err = f.Embed(Request{Query: q, Algorithm: AlgoPathEmbed, Path: PathRequestOptions{MaxHops: 2}, MaxResults: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if where != "coordinator" || len(resp.Named) != 0 {
		t.Fatalf("two hops: answered by %q with %v", where, resp.Named)
	}
	if span := f.Cluster().Spanning; span.Answered != 1 || span.Exhausted != 1 || span.Deadline != 0 {
		t.Errorf("spanning = %+v, want one answered and one exhausted", span)
	}
}

// TestPathStitchHonoursDeadline: the stitched witness of a path-mode
// cut edge is enumerated under the request's deadline. The boundary is
// a complete bipartite graph between the two regions and the query edge
// asks for a delay no path has, so enumerating every path of up to 16
// hops would take far longer than the test; the request must give up
// near its 300ms timeout and count a deadline, not an exhausted split.
func TestPathStitchHonoursDeadline(t *testing.T) {
	const side = 10
	host := graph.NewUndirected()
	for i := 0; i < 2*side; i++ {
		region := "west"
		if i >= side {
			region = "east"
		}
		host.AddNode("", graph.Attrs{}.SetStr("region", region))
	}
	for w := 0; w < side; w++ {
		for e := side; e < 2*side; e++ {
			host.MustAddEdge(graph.NodeID(w), graph.NodeID(e), graph.Attrs{}.SetNum("avgDelay", 1))
		}
	}
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NewUndirected()
	a := q.AddNode("a", graph.Attrs{}.SetStr("region", "west"))
	b := q.AddNode("b", graph.Attrs{}.SetStr("region", "east"))
	q.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 1e9).SetNum("maxDelay", 2e9))

	const timeout = 300 * time.Millisecond
	type result struct {
		resp  *Response
		where string
		err   error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		resp, where, err := f.Embed(Request{Query: q, Algorithm: AlgoPathEmbed, Path: PathRequestOptions{MaxHops: 16}, MaxResults: 1, Timeout: timeout})
		done <- result{resp, where, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("path-mode spanning request still stitching 10s after its 300ms timeout")
	}
	if took := time.Since(start); took > 10*timeout {
		t.Errorf("request took %v on a %v timeout", took, timeout)
	}
	if r.err != nil || r.where != "coordinator" || len(r.resp.Named) != 0 {
		t.Fatalf("answered by %q with %v (err %v)", r.where, r.resp, r.err)
	}
	if span := f.Cluster().Spanning; span.Deadline != 1 || span.Exhausted != 0 {
		t.Errorf("spanning = %+v, want the abandoned stitch counted as a deadline", span)
	}
}
