package service

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

const delayWindowSrc = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"

func testHost(t testing.TB, sites int, seed int64) *graph.Graph {
	t.Helper()
	return trace.SyntheticPlanetLab(trace.Config{Sites: sites}, rand.New(rand.NewSource(seed)))
}

func testQuery(t testing.TB, host *graph.Graph, n, e int, seed int64) *graph.Graph {
	t.Helper()
	q, _, err := topo.Subgraph(host, n, e, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.2)
	return q
}

func TestModelAcquireAndApply(t *testing.T) {
	g := topo.Ring(4)
	m := NewModel(g)
	snap := m.Acquire()
	if snap.Host() != g || snap.Version() != 1 || snap.Index().Version() != 1 {
		t.Fatalf("initial snapshot %v v%d", snap.Host(), snap.Version())
	}
	replace, err := graph.Replacement(g, topo.Ring(5))
	if err != nil {
		t.Fatal(err)
	}
	if v2, err := m.Apply(replace); err != nil || v2 != 2 {
		t.Errorf("version after replacement = %d, %v", v2, err)
	}
	snap2 := m.Acquire()
	if snap2.Host().NumNodes() != 5 || snap2.Host().NumEdges() != 5 || snap2.Index().NumNodes() != 5 {
		t.Error("replacement not visible")
	}
	// The pinned snapshot still reads the network it acquired.
	if snap.Host().NumNodes() != 4 || snap.Version() != 1 {
		t.Error("a write changed a pinned snapshot")
	}
	snap.Release()
	v3, err := m.Apply(&graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{{
		Node: snap2.Host().Node(0).Name, Set: graph.Attrs{}.SetNum("cpu", 8),
	}}})
	if err != nil || v3 != 3 {
		t.Errorf("version after attribute delta = %d, %v", v3, err)
	}
	if snap2.Host().Node(0).Attrs.Has("cpu") {
		t.Error("Apply modified an old snapshot")
	}
	snap2.Release()
	if m.Version() != 3 {
		t.Errorf("Version() = %d", m.Version())
	}
	if st := m.EpochStats(); st.LiveReaders != 0 || st.Retired != 2 {
		t.Errorf("after releasing both superseded snapshots: %+v", st)
	}
}

func TestMonitorDriftsDelays(t *testing.T) {
	host := testHost(t, 30, 1)
	model := NewModel(host)
	mon := NewMonitor(model, MonitorConfig{Seed: 7, EdgeFraction: 0.5, JitterPct: 0.2})
	before, v0 := peek(model).Host(), model.Version()
	if v := mon.Step(); v != v0+1 {
		t.Errorf("version after step = %d", v)
	}
	after := peek(model).Host()
	changed := 0
	for i := 0; i < before.NumEdges(); i++ {
		b, _ := before.Edge(graph.EdgeID(i)).Attrs.Float("avgDelay")
		a, _ := after.Edge(graph.EdgeID(i)).Attrs.Float("avgDelay")
		if a != b {
			changed++
		}
	}
	if changed == 0 {
		t.Error("monitor step changed nothing")
	}
	if mon.Steps() != 1 {
		t.Errorf("Steps = %d", mon.Steps())
	}
	// Run loop integration: a couple of ticks then stop.
	mon2 := NewMonitor(model, MonitorConfig{Seed: 8, Interval: time.Millisecond})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { mon2.Run(stop); close(done) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	if mon2.Steps() == 0 {
		t.Error("Run produced no steps")
	}
}

func TestEmbedAllAlgorithms(t *testing.T) {
	host := testHost(t, 40, 2)
	model := NewModel(host)
	svc := New(model, Config{})
	query := testQuery(t, host, 6, 8, 3)

	for _, algo := range []Algorithm{AlgoECF, AlgoRWB, AlgoLNS, AlgoParallelECF, ""} {
		resp, err := svc.Embed(Request{
			Query:          query,
			EdgeConstraint: delayWindowSrc,
			Algorithm:      algo,
			MaxResults:     1,
			Timeout:        10 * time.Second,
		})
		if err != nil {
			t.Fatalf("algo %q: %v", algo, err)
		}
		if len(resp.Mappings) == 0 {
			t.Fatalf("algo %q found nothing", algo)
		}
		if resp.ModelVersion != 1 {
			t.Errorf("algo %q model version %d", algo, resp.ModelVersion)
		}
		if len(resp.Named) != len(resp.Mappings) {
			t.Fatalf("algo %q named size mismatch", algo)
		}
		for qName, rName := range resp.Named[0] {
			if _, ok := query.NodeByName(qName); !ok {
				t.Errorf("algo %q: unknown query node %q", algo, qName)
			}
			if _, ok := host.NodeByName(rName); !ok {
				t.Errorf("algo %q: unknown host node %q", algo, rName)
			}
		}
	}
}

func TestEmbedErrors(t *testing.T) {
	host := testHost(t, 20, 4)
	svc := New(NewModel(host), Config{})
	if _, err := svc.Embed(Request{}); err != ErrNoQuery {
		t.Errorf("no query: %v", err)
	}
	q := topo.Ring(3)
	if _, err := svc.Embed(Request{Query: q, Algorithm: "quantum"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := svc.Embed(Request{Query: q, EdgeConstraint: "1 +"}); err == nil ||
		!strings.Contains(err.Error(), "edge constraint") {
		t.Errorf("bad edge constraint: %v", err)
	}
	if _, err := svc.Embed(Request{Query: q, NodeConstraint: "1 +"}); err == nil ||
		!strings.Contains(err.Error(), "node constraint") {
		t.Errorf("bad node constraint: %v", err)
	}
	// Constraint in the wrong context.
	if _, err := svc.Embed(Request{Query: q, EdgeConstraint: "vNode.cpu > 1"}); err == nil {
		t.Error("node-context program accepted as edge constraint")
	}
}

func TestLedgerAllocateRelease(t *testing.T) {
	l := NewLedger()
	id, err := l.Allocate(core.Mapping{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.ReservedNodes()); got != 3 {
		t.Errorf("reserved = %d", got)
	}
	if l.ActiveLeases() != 1 {
		t.Errorf("active = %d", l.ActiveLeases())
	}
	if _, err := l.Allocate(core.Mapping{3, 4}); err == nil {
		t.Error("overlapping allocation accepted")
	}
	if _, err := l.Allocate(core.Mapping{4, 4}); err == nil {
		t.Error("duplicate-node mapping accepted")
	}
	lease, ok := l.Lease(id)
	if !ok || len(lease.Nodes) != 3 {
		t.Errorf("Lease() = %+v, %v", lease, ok)
	}
	if err := l.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(id); err != ErrLeaseNotFound {
		t.Errorf("double release: %v", err)
	}
	if got := len(l.ReservedNodes()); got != 0 {
		t.Errorf("reserved after release = %d", got)
	}
}

func TestLedgerWindows(t *testing.T) {
	l := NewLedger()
	base := time.Date(2026, 6, 11, 12, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return base })

	// Lease tomorrow 10:00-11:00.
	start := base.Add(22 * time.Hour)
	end := start.Add(time.Hour)
	if _, err := l.AllocateWindow(core.Mapping{5}, start, end); err != nil {
		t.Fatal(err)
	}
	if n := len(l.ReservedNodes()); n != 0 {
		t.Errorf("future lease active now: %d nodes", n)
	}
	if n := len(l.ReservedNodesAt(start.Add(time.Minute))); n != 1 {
		t.Errorf("lease not active in window: %d", n)
	}
	// Non-overlapping window on the same node is fine.
	if _, err := l.AllocateWindow(core.Mapping{5}, end, end.Add(time.Hour)); err != nil {
		t.Errorf("adjacent window rejected: %v", err)
	}
	// Overlapping window conflicts.
	if _, err := l.AllocateWindow(core.Mapping{5}, start.Add(30*time.Minute), end.Add(time.Hour)); err == nil {
		t.Error("overlapping window accepted")
	}
	// Open-ended lease conflicts with everything.
	if _, err := l.AllocateWindow(core.Mapping{5}, time.Time{}, time.Time{}); err == nil {
		t.Error("open-ended lease over busy node accepted")
	}
	// Degenerate window.
	if _, err := l.AllocateWindow(core.Mapping{6}, end, end); err == nil {
		t.Error("empty window accepted")
	}
}

func TestLedgerCapacity(t *testing.T) {
	l := NewLedger()
	l.SetCapacity(func(r graph.NodeID) int {
		if r == 7 {
			return 2
		}
		return 1
	})
	// Node 7 holds two concurrent leases; the third conflicts.
	a, err := l.Allocate(core.Mapping{7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Allocate(core.Mapping{7}); err != nil {
		t.Fatalf("second slot rejected: %v", err)
	}
	if _, err := l.Allocate(core.Mapping{7}); err == nil {
		t.Fatal("third lease on a 2-slot node accepted")
	}
	// Single-slot node still conflicts immediately.
	if _, err := l.Allocate(core.Mapping{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Allocate(core.Mapping{3}); err == nil {
		t.Fatal("second lease on a 1-slot node accepted")
	}
	// Saturation: node 7 saturated (2/2), node 3 saturated (1/1).
	if free := l.Free(10); free.Count() != 8 || free.Has(7) || free.Has(3) {
		t.Fatalf("free = %v", free.AppendTo(nil))
	}
	// Releasing one of node 7's leases frees a slot.
	if err := l.Release(a); err != nil {
		t.Fatal(err)
	}
	if free := l.Free(10); free.Count() != 9 || free.Has(3) {
		t.Fatalf("free after release = %v", free.AppendTo(nil))
	}
	if _, err := l.Allocate(core.Mapping{7}); err != nil {
		t.Fatalf("freed slot rejected: %v", err)
	}
	// SetCapacity(nil) restores single-slot semantics for new checks.
	l.SetCapacity(nil)
	if _, err := l.Allocate(core.Mapping{9}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Allocate(core.Mapping{9}); err == nil {
		t.Fatal("nil capacity did not restore single-slot")
	}
}

func TestServiceCapacityFromSlotsAttr(t *testing.T) {
	// One feasible triangle whose nodes each carry 2 slots: two identical
	// embeddings may coexist, a third is excluded.
	host := graph.NewUndirected()
	for i := 0; i < 3; i++ {
		host.AddNode("", graph.Attrs{}.SetNum(SlotsAttr, 2))
	}
	attrs := func() graph.Attrs {
		return graph.Attrs{}.SetNum("minDelay", 10).SetNum("maxDelay", 20)
	}
	host.MustAddEdge(0, 1, attrs())
	host.MustAddEdge(1, 2, attrs())
	host.MustAddEdge(0, 2, attrs())
	svc := New(NewModel(host), Config{})
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 25)
	req := Request{Query: q, EdgeConstraint: delayWindowSrc, MaxResults: 1, ExcludeReserved: true}

	for i := 0; i < 2; i++ {
		resp, err := svc.Embed(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Mappings) == 0 {
			t.Fatalf("embedding %d found nothing", i+1)
		}
		if _, err := svc.Ledger().Allocate(resp.Mappings[0]); err != nil {
			t.Fatalf("allocation %d: %v", i+1, err)
		}
	}
	// All slots used: the third request must come up empty.
	resp, err := svc.Embed(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) != 0 {
		t.Fatalf("third embedding placed despite exhausted slots: %v", resp.Mappings)
	}
}

func TestEmbedExcludeReserved(t *testing.T) {
	// Host: two disjoint feasible triangles; reserve one, expect the other.
	host := graph.NewUndirected()
	for i := 0; i < 6; i++ {
		host.AddNode("", nil)
	}
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

	query := topo.Clique(3)
	topo.SetDelayWindow(query, 5, 25)

	if _, err := svc.Ledger().Allocate(core.Mapping{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Embed(Request{
		Query:           query,
		EdgeConstraint:  delayWindowSrc,
		ExcludeReserved: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Mappings {
		for _, r := range m {
			if r <= 2 {
				t.Fatalf("embedding used reserved node %d", r)
			}
		}
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no embedding despite free triangle")
	}
	// Without exclusion both triangles are eligible.
	resp2, err := svc.Embed(Request{Query: query, EdgeConstraint: delayWindowSrc})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Mappings) <= len(resp.Mappings) {
		t.Error("exclusion did not shrink the solution set")
	}
}

func TestSchedule(t *testing.T) {
	// Host with exactly one feasible triangle: concurrent leases force the
	// scheduler to find a later window.
	host := graph.NewUndirected()
	for i := 0; i < 3; i++ {
		host.AddNode("", nil)
	}
	attrs := func() graph.Attrs {
		return graph.Attrs{}.SetNum("minDelay", 10).SetNum("maxDelay", 20)
	}
	host.MustAddEdge(0, 1, attrs())
	host.MustAddEdge(1, 2, attrs())
	host.MustAddEdge(0, 2, attrs())
	svc := New(NewModel(host), Config{})

	query := topo.Clique(3)
	topo.SetDelayWindow(query, 5, 25)

	now := time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)
	svc.Ledger().SetClock(func() time.Time { return now })

	// Existing lease holds the triangle for the first hour.
	if _, err := svc.Ledger().AllocateWindow(core.Mapping{0, 1, 2}, now, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	resp, err := svc.Schedule(ScheduleRequest{
		Request:  Request{Query: query, EdgeConstraint: delayWindowSrc},
		Duration: 30 * time.Minute,
		Horizon:  4 * time.Hour,
		Step:     15 * time.Minute,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Start.Before(now.Add(time.Hour)) {
		t.Errorf("scheduled inside the busy hour: %v", resp.Start)
	}
	if resp.WindowsTried < 2 {
		t.Errorf("WindowsTried = %d", resp.WindowsTried)
	}
	if _, ok := svc.Ledger().Lease(resp.Lease); !ok {
		t.Error("schedule did not take out a lease")
	}

	// A second identical request must land after the first one's window.
	resp2, err := svc.Schedule(ScheduleRequest{
		Request:  Request{Query: query, EdgeConstraint: delayWindowSrc},
		Duration: 30 * time.Minute,
		Horizon:  6 * time.Hour,
		Step:     15 * time.Minute,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Start.Before(resp.Start.Add(30 * time.Minute)) {
		t.Errorf("second window %v overlaps first %v", resp2.Start, resp.Start)
	}

	// An impossible query never finds a window.
	impossible := topo.Clique(3)
	topo.SetDelayWindow(impossible, -5, -1)
	if _, err := svc.Schedule(ScheduleRequest{
		Request:  Request{Query: impossible, EdgeConstraint: delayWindowSrc},
		Duration: time.Hour,
		Horizon:  time.Hour,
		Step:     30 * time.Minute,
	}, now); err != ErrNoWindow {
		t.Errorf("impossible schedule: %v", err)
	}
}

func TestScheduleValidation(t *testing.T) {
	svc := New(NewModel(topo.Ring(3)), Config{})
	if _, err := svc.Schedule(ScheduleRequest{}, time.Now()); err != ErrNoQuery {
		t.Errorf("no query: %v", err)
	}
	if _, err := svc.Schedule(ScheduleRequest{
		Request: Request{Query: topo.Ring(3)},
	}, time.Now()); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestSelectBestAndCosts(t *testing.T) {
	host := testHost(t, 30, 5)
	model := NewModel(host)
	svc := New(model, Config{})
	query := testQuery(t, host, 5, 6, 6)
	resp, err := svc.Embed(Request{
		Query:          query,
		EdgeConstraint: delayWindowSrc,
		MaxResults:     50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) < 2 {
		t.Skip("not enough mappings to compare")
	}
	costFn := TotalEdgeAttrCost("avgDelay")
	best, bestCost, err := SelectBest(query, host, resp.Mappings, costFn)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Mappings {
		if c := costFn(query, host, m); c < bestCost {
			t.Errorf("SelectBest missed cheaper mapping: %v < %v", c, bestCost)
		}
	}
	_ = best

	if worst := MaxEdgeAttrCost("avgDelay")(query, host, resp.Mappings[0]); worst <= 0 {
		t.Errorf("MaxEdgeAttrCost = %v", worst)
	}
	if spread := SpreadCost("region")(query, host, resp.Mappings[0]); spread >= 0 {
		t.Errorf("SpreadCost should be negative, got %v", spread)
	}
	if _, _, err := SelectBest(query, host, nil, costFn); err != ErrNoMappings {
		t.Errorf("empty SelectBest: %v", err)
	}
}

func TestConcurrentEmbedsAndMonitor(t *testing.T) {
	host := testHost(t, 40, 7)
	model := NewModel(host)
	svc := New(model, Config{})
	mon := NewMonitor(model, MonitorConfig{Seed: 9})
	query := testQuery(t, host, 5, 6, 8)

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(seed int64) {
			_, err := svc.Embed(Request{
				Query:          query,
				EdgeConstraint: delayWindowSrc,
				Algorithm:      AlgoRWB,
				Seed:           seed,
				MaxResults:     1,
			})
			done <- err
		}(int64(i))
	}
	for i := 0; i < 4; i++ {
		mon.Step()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestObjectiveAttrWarnings pins the optimizing-request warning pass: a
// typo'd objective attribute silently degenerates the objective to a
// constant (every term its missing-attribute fallback), so the service
// must flag it exactly like constraint-program attribute typos — while a
// defined attribute and energy's implicit cold-fleet default stay silent.
func TestObjectiveAttrWarnings(t *testing.T) {
	host := testHost(t, 12, 3)
	svc := New(NewModel(host), Config{})
	q := testQuery(t, host, 3, 2, 4)

	embed := func(o core.Objective) *Response {
		t.Helper()
		resp, err := svc.Embed(Request{
			Query: q, EdgeConstraint: delayWindowSrc,
			Optimize: true, Objective: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	typo := embed(core.Objective{Kind: core.ObjectiveAttrCost, Attr: "prise"})
	if !warningsContain(typo.Warnings, "prise") {
		t.Errorf("no warning for typo'd objective attr in %v", typo.Warnings)
	}
	defined := embed(core.Objective{Kind: core.ObjectiveAttrCost, Attr: "cpu"})
	if warningsContain(defined.Warnings, "objective reads") {
		t.Errorf("defined objective attr warned: %v", defined.Warnings)
	}
	// Load balance defaults to "slots", which PlanetLab hosts never
	// define: every term clamps to Weight/1 — constant, so warn.
	lb := embed(core.Objective{Kind: core.ObjectiveLoadBalance})
	if !warningsContain(lb.Warnings, "slots") {
		t.Errorf("no warning for missing slots attr in %v", lb.Warnings)
	}
	// Energy's implicit "active" default on a host with no active marks
	// is the documented cold-fleet mode (every used host powers on).
	energy := embed(core.Objective{Kind: core.ObjectiveEnergy})
	if warningsContain(energy.Warnings, "objective reads") {
		t.Errorf("energy cold-fleet default warned: %v", energy.Warnings)
	}
	// ...but an explicitly named energy attribute nothing defines is a
	// typo like any other.
	energyTypo := embed(core.Objective{Kind: core.ObjectiveEnergy, Attr: "actve"})
	if !warningsContain(energyTypo.Warnings, "actve") {
		t.Errorf("no warning for typo'd energy attr in %v", energyTypo.Warnings)
	}
}

// TestRequestAllowEveryAlgorithm: Request.Allow reaches core.Problem.Allow
// for every algorithm the service dispatches to — injective searches,
// consolidate and path mode alike — and schedule; an unknown query node
// or an over-long list is ErrBadAllow, an unknown host name merely not
// allowed.
func TestRequestAllowEveryAlgorithm(t *testing.T) {
	svc := New(NewModel(topo.Clique(6)), Config{})
	allow := map[string][]string{"n0": {"n3", "no-such-host"}}
	for _, algo := range []Algorithm{AlgoECF, AlgoRWB, AlgoLNS, AlgoParallelECF, AlgoConsolidate, AlgoPathEmbed} {
		free, err := svc.Embed(Request{Query: topo.Line(2), Algorithm: algo, MaxResults: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := svc.Embed(Request{Query: topo.Line(2), Algorithm: algo, MaxResults: 1 << 20, Allow: allow})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Named) == 0 || len(resp.Named) >= len(free.Named) {
			t.Errorf("%s: %d mappings under the allow-set, %d without", algo, len(resp.Named), len(free.Named))
		}
		for _, m := range resp.Named {
			if m["n0"] != "n3" {
				t.Errorf("%s: n0 mapped to %s outside its allow-set", algo, m["n0"])
			}
		}
	}
	sched, err := svc.Schedule(ScheduleRequest{
		Request:  Request{Query: topo.Line(2), Allow: allow},
		Duration: time.Minute,
	}, time.Now())
	if err != nil || sched.Named["n0"] != "n3" {
		t.Errorf("schedule: n0 on %q (err %v), want n3", sched.Named["n0"], err)
	}
	if _, err := svc.Embed(Request{Query: topo.Line(2), Allow: map[string][]string{"n9": {"n1"}}}); !errors.Is(err, ErrBadAllow) {
		t.Errorf("unknown query node: err = %v, want ErrBadAllow", err)
	}
	if _, err := svc.Embed(Request{Query: topo.Line(2), Allow: map[string][]string{"n0": make([]string, 7)}}); !errors.Is(err, ErrBadAllow) {
		t.Errorf("7 hosts listed against a 6-node model: err = %v, want ErrBadAllow", err)
	}
}
