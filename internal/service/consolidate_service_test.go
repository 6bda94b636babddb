package service

import (
	"fmt"
	"testing"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
)

// clusterHost is a triangle of machines with capacity 3 and 10ms links.
func clusterHost() *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < 3; i++ {
		g.AddNode(fmt.Sprintf("machine%d", i), graph.Attrs{}.SetNum("capacity", 3))
	}
	link := func() graph.Attrs {
		return graph.Attrs{}.SetNum("minDelay", 9).SetNum("avgDelay", 10).SetNum("maxDelay", 11)
	}
	g.MustAddEdge(0, 1, link())
	g.MustAddEdge(1, 2, link())
	g.MustAddEdge(0, 2, link())
	return g
}

func ringQuery(n int) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%d", i), graph.Attrs{}.SetNum("demand", 1))
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), graph.Attrs{}.SetNum("maxDelay", 40))
	}
	return g
}

func TestServiceConsolidateAlgorithm(t *testing.T) {
	svc := New(NewModel(clusterHost()), Config{})
	// A 7-node ring cannot embed injectively into a 3-host triangle, but
	// fits with consolidation (capacity 3×3 = 9 >= 7).
	resp, err := svc.Embed(Request{
		Query:          ringQuery(7),
		EdgeConstraint: "rEdge.maxDelay <= vEdge.maxDelay",
		Algorithm:      AlgoConsolidate,
		MaxResults:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no consolidated embedding via the service")
	}
	host := peek(svc.Model()).Host()
	p, err := core.NewConsolidatedProblem(ringQuery(7), host,
		mustEdgeProg(t, "rEdge.maxDelay <= vEdge.maxDelay"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Mappings {
		if err := p.VerifyConsolidated(m, core.ConsolidateOptions{}); err != nil {
			t.Fatalf("service-returned consolidated mapping invalid: %v", err)
		}
	}
	// Named mappings must cover all seven query nodes.
	if len(resp.Named[0]) != 7 {
		t.Fatalf("named mapping has %d entries, want 7", len(resp.Named[0]))
	}
}

func TestServiceInjectiveRejectsOversizedQuery(t *testing.T) {
	svc := New(NewModel(clusterHost()), Config{})
	_, err := svc.Embed(Request{
		Query:          ringQuery(7),
		EdgeConstraint: "rEdge.maxDelay <= vEdge.maxDelay",
		Algorithm:      AlgoECF,
	})
	if err == nil {
		t.Fatal("injective algorithm accepted an oversized query")
	}
}

func TestServiceConsolidateCustomAttrs(t *testing.T) {
	host := clusterHost()
	for i := 0; i < 3; i++ {
		host.Node(graph.NodeID(i)).Attrs = host.Node(graph.NodeID(i)).Attrs.SetNum("slots", 2)
	}
	q := ringQuery(5)
	for i := 0; i < 5; i++ {
		q.Node(graph.NodeID(i)).Attrs = q.Node(graph.NodeID(i)).Attrs.SetNum("vcpus", 1)
	}
	svc := New(NewModel(host), Config{})
	resp, err := svc.Embed(Request{
		Query:          q,
		EdgeConstraint: "rEdge.maxDelay <= vEdge.maxDelay",
		Algorithm:      AlgoConsolidate,
		MaxResults:     1,
		Consolidate:    core.ConsolidateOptions{CapacityAttr: "slots", DemandAttr: "vcpus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no embedding under renamed capacity attributes")
	}
	// Count load per host: no machine may exceed 2 slots.
	load := map[graph.NodeID]int{}
	for _, r := range resp.Mappings[0] {
		load[r]++
	}
	for r, n := range load {
		if n > 2 {
			t.Fatalf("host %d packed %d nodes over its 2 slots", r, n)
		}
	}
}

func mustEdgeProg(t *testing.T, src string) *expr.Program {
	t.Helper()
	prog, _, err := CompilePrograms(src, "")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
