package service

import (
	"errors"
	"strings"
	"testing"

	"netembed/internal/core"
	"netembed/internal/graph"
)

// pathServiceHost builds a line host h0-h1-h2-h3 with 10ms hops — the
// minimal topology where a windowed query edge must ride a 2-hop path.
func pathServiceHost() *graph.Graph {
	g := graph.NewUndirected()
	for _, name := range []string{"h0", "h1", "h2", "h3"} {
		g.AddNode(name, nil)
	}
	for i := 0; i < 3; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Attrs{}.SetNum("avgDelay", 10))
	}
	return g
}

// pathServiceQuery is a single query edge a-b demanding 15..25ms: no
// single 10ms hop qualifies, any 2-hop path (20ms) does.
func pathServiceQuery() *graph.Graph {
	q := graph.NewUndirected()
	q.AddNode("a", nil)
	q.AddNode("b", nil)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 15).SetNum("maxDelay", 25))
	return q
}

func TestServicePathEmbedEndToEnd(t *testing.T) {
	model := NewModel(pathServiceHost())
	svc := New(model, Config{})
	resp, err := svc.Embed(Request{
		Query:     pathServiceQuery(),
		Algorithm: AlgoPathEmbed,
		Path:      PathRequestOptions{MaxHops: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != core.StatusComplete || len(resp.Mappings) == 0 {
		t.Fatalf("status %v, %d mappings", resp.Status, len(resp.Mappings))
	}
	if len(resp.Paths) != len(resp.Mappings) {
		t.Fatalf("paths %d not parallel to mappings %d", len(resp.Paths), len(resp.Mappings))
	}
	for i, witnesses := range resp.Paths {
		if len(witnesses) != 1 {
			t.Fatalf("solution %d has %d witnesses, want 1", i, len(witnesses))
		}
		w := witnesses[0]
		if w.Source != "a" || w.Target != "b" {
			t.Errorf("witness endpoints %s->%s", w.Source, w.Target)
		}
		if len(w.Path) != 3 {
			t.Errorf("witness path %v, want 2 hops (3 nodes)", w.Path)
		}
		if w.Cost != 20 {
			t.Errorf("witness cost %v, want 20", w.Cost)
		}
		if w.Path[0] != resp.Named[i]["a"] || w.Path[len(w.Path)-1] != resp.Named[i]["b"] {
			t.Errorf("witness %v does not join the named mapping %v", w.Path, resp.Named[i])
		}
	}
	if resp.Stats.WitnessProbes == 0 {
		t.Error("path-mode stats did not reach the response")
	}
}

func TestServicePathEmbedRejectsNegativeMaxHops(t *testing.T) {
	svc := New(NewModel(pathServiceHost()), Config{})
	_, err := svc.Embed(Request{
		Query:     pathServiceQuery(),
		Algorithm: AlgoPathEmbed,
		Path:      PathRequestOptions{MaxHops: -1},
	})
	if !errors.Is(err, ErrBadPathOptions) {
		t.Fatalf("err = %v, want ErrBadPathOptions", err)
	}
}

func TestServicePathEmbedDefaultHopsConfig(t *testing.T) {
	// The query needs 2 hops; a service configured with DefaultPathHops 1
	// must find nothing for a request that leaves MaxHops unset, and a
	// hops-2 service must succeed.
	for _, tc := range []struct {
		hops int
		want bool
	}{{1, false}, {2, true}, {0, true}} { // 0 = core default 3, also enough
		svc := New(NewModel(pathServiceHost()), Config{DefaultPathHops: tc.hops})
		resp, err := svc.Embed(Request{Query: pathServiceQuery(), Algorithm: AlgoPathEmbed})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(resp.Mappings) > 0; got != tc.want {
			t.Errorf("DefaultPathHops=%d: feasible=%v, want %v", tc.hops, got, tc.want)
		}
	}
}

func TestServicePathEmbedWarnsOnEdgeConstraint(t *testing.T) {
	svc := New(NewModel(pathServiceHost()), Config{})
	resp, err := svc.Embed(Request{
		Query:          pathServiceQuery(),
		Algorithm:      AlgoPathEmbed,
		EdgeConstraint: "rEdge.avgDelay <= vEdge.maxDelay",
		Path:           PathRequestOptions{MaxHops: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range resp.Warnings {
		if strings.Contains(w, "edge constraint") {
			found = true
		}
	}
	if !found {
		t.Errorf("no edge-constraint warning in %v", resp.Warnings)
	}
	// The constraint must not have filtered anything.
	if len(resp.Mappings) == 0 {
		t.Error("path search found nothing despite valid windows")
	}
}

// TestServicePathEmbedWarnsOnTypoedMetricAttrs pins the silent-rejection
// guard: metric attribute names that nothing defines produce warnings,
// while the default windowless behavior stays quiet.
func TestServicePathEmbedWarnsOnTypoedMetricAttrs(t *testing.T) {
	svc := New(NewModel(pathServiceHost()), Config{})
	// Typo'd composed attribute: every hosting edge contributes
	// MissingEdge, windows silently reject everything.
	resp, err := svc.Embed(Request{
		Query:     pathServiceQuery(),
		Algorithm: AlgoPathEmbed,
		Path:      PathRequestOptions{MaxHops: 2, DelayAttr: "avgDeley"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warningsContain(resp.Warnings, "avgDeley") {
		t.Errorf("no warning for typo'd delay attr in %v", resp.Warnings)
	}
	// Explicitly-set window name no query edge carries.
	resp, err = svc.Embed(Request{
		Query:     pathServiceQuery(),
		Algorithm: AlgoPathEmbed,
		Path:      PathRequestOptions{MaxHops: 2, WindowHi: "maxDeley"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warningsContain(resp.Warnings, "maxDeley") {
		t.Errorf("no warning for typo'd window attr in %v", resp.Warnings)
	}
	// A clean default request warns about nothing: the query edges carry
	// the default window names and the host edges the composed attr.
	resp, err = svc.Embed(Request{
		Query:     pathServiceQuery(),
		Algorithm: AlgoPathEmbed,
		Path:      PathRequestOptions{MaxHops: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Warnings) != 0 {
		t.Errorf("clean path request produced warnings %v", resp.Warnings)
	}
}

func warningsContain(warnings []string, substr string) bool {
	for _, w := range warnings {
		if strings.Contains(w, substr) {
			return true
		}
	}
	return false
}

func TestServicePathEmbedMultiMetric(t *testing.T) {
	host := pathServiceHost()
	// Give the middle hop low bandwidth so the bottleneck floor rejects
	// paths crossing it.
	e, _ := host.EdgeBetween(1, 2)
	host.Edge(e).Attrs = host.Edge(e).Attrs.SetNum("bandwidth", 5)
	e01, _ := host.EdgeBetween(0, 1)
	host.Edge(e01).Attrs = host.Edge(e01).Attrs.SetNum("bandwidth", 100)
	e23, _ := host.EdgeBetween(2, 3)
	host.Edge(e23).Attrs = host.Edge(e23).Attrs.SetNum("bandwidth", 100)

	q := pathServiceQuery()
	q.Edge(0).Attrs = q.Edge(0).Attrs.SetNum("minBandwidth", 50)

	svc := New(NewModel(host), Config{})
	resp, err := svc.Embed(Request{
		Query:     q,
		Algorithm: AlgoPathEmbed,
		Path: PathRequestOptions{
			MaxHops: 2,
			Metrics: []core.MetricSpec{
				core.DefaultDelaySpec("avgDelay", "minDelay", "maxDelay"),
				{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth", MissingFails: true},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every witness must avoid the 5-bandwidth middle hop — but every
	// 2-hop path on the line crosses it, so the instance is infeasible.
	if len(resp.Mappings) != 0 || resp.Status != core.StatusComplete {
		t.Fatalf("bottleneck floor not enforced: %d mappings, %v", len(resp.Mappings), resp.Status)
	}
}

// TestServicePathEmbedFederation routes a path request through the
// hierarchical deployment: the algorithm rides the same shard-then-global
// logic as the one-to-one searches.
func TestServicePathEmbedFederation(t *testing.T) {
	host := pathServiceHost()
	for i := 0; i < host.NumNodes(); i++ {
		host.Node(graph.NodeID(i)).Attrs = host.Node(graph.NodeID(i)).Attrs.SetStr("region", "core")
	}
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, where, err := f.Embed(Request{
		Query:     pathServiceQuery(),
		Algorithm: AlgoPathEmbed,
		Path:      PathRequestOptions{MaxHops: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if where != "core" || len(resp.Mappings) == 0 {
		t.Fatalf("answered by %q with %d mappings", where, len(resp.Mappings))
	}
}
