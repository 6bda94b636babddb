package netembed_test

import (
	"fmt"
	"testing"
	"time"

	"netembed"
)

// Facade-level integration tests for the two §VIII/§II extensions added
// on top of the core reproduction: many-to-one node consolidation and
// coordinate-based model completion. Everything here goes through the
// public API only.

func TestFacadeConsolidationEndToEnd(t *testing.T) {
	// Three machines with capacity 3, fully meshed at 10ms.
	host := netembed.NewUndirected()
	for i := 0; i < 3; i++ {
		host.AddNode(fmt.Sprintf("m%d", i), netembed.Attrs{}.SetNum("capacity", 3))
	}
	link := func() netembed.Attrs {
		return netembed.Attrs{}.SetNum("minDelay", 9).SetNum("avgDelay", 10).SetNum("maxDelay", 11)
	}
	host.MustAddEdge(0, 1, link())
	host.MustAddEdge(1, 2, link())
	host.MustAddEdge(0, 2, link())

	// A 7-node ring of unit demands: oversized for injective embedding.
	q := netembed.Ring(7)
	netembed.SetDelayWindow(q, 0, 40)

	constraint := netembed.MustCompile("rEdge.maxDelay <= vEdge.maxDelay")
	if _, err := netembed.NewProblem(q, host, constraint, nil); err == nil {
		t.Fatal("injective constructor accepted an oversized query")
	}
	p, err := netembed.NewConsolidatedProblem(q, host, constraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := netembed.Consolidate(p, netembed.Options{}, netembed.ConsolidateOptions{})
	if len(res.Solutions) == 0 {
		t.Fatalf("no consolidated embedding (status %s)", res.Status)
	}
	for _, m := range res.Solutions {
		if err := p.VerifyConsolidated(m, netembed.ConsolidateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeModelCompletionEndToEnd(t *testing.T) {
	rng := netembed.NewRand(3)
	host := netembed.SyntheticPlanetLab(netembed.TraceConfig{Sites: 50}, rng)

	// Thin the measured graph to 20%.
	sparse := netembed.NewUndirected()
	for i := 0; i < host.NumNodes(); i++ {
		n := host.Node(netembed.NodeID(i))
		sparse.AddNode(n.Name, n.Attrs.Clone())
	}
	for e := 0; e < host.NumEdges(); e++ {
		if rng.Float64() > 0.2 {
			continue
		}
		ed := host.Edge(netembed.EdgeID(e))
		sparse.MustAddEdge(ed.From, ed.To, ed.Attrs.Clone())
	}
	kept := sparse.NumEdges()

	model := netembed.NewModel(sparse)
	report, err := netembed.CompleteModel(model, netembed.CompletionConfig{
		Embed: netembed.CoordEmbedConfig{
			Rounds: 32,
			Config: netembed.CoordConfig{Heights: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	full := 50 * 49 / 2
	if report.Added != full-kept {
		t.Fatalf("completion added %d edges, want %d", report.Added, full-kept)
	}
	pinned := model.Acquire()
	snap := pinned.Host()
	pinned.Release()
	if snap.NumEdges() != full {
		t.Fatalf("completed model has %d edges, want %d", snap.NumEdges(), full)
	}

	// A query must now be answerable over predicted links, and
	// excludable from them.
	svc := netembed.NewService(model, netembed.ServiceConfig{})
	q := netembed.Star(4)
	netembed.SetDelayWindow(q, 1, 1e6)
	resp, err := svc.Embed(netembed.Request{
		Query:          q,
		EdgeConstraint: "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay",
		MaxResults:     1,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no embedding on the completed model")
	}
}

func TestFacadeCoordsDirect(t *testing.T) {
	rng := netembed.NewRand(5)
	host := netembed.SyntheticPlanetLab(netembed.TraceConfig{Sites: 40}, rng)
	sys, traj, err := netembed.CoordsEmbed(host, netembed.CoordEmbedConfig{Rounds: 24}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 24 {
		t.Fatalf("trajectory has %d rounds", len(traj))
	}
	es := netembed.CoordsErrors(sys, host, "avgDelay")
	if es.Edges == 0 || es.Median <= 0 {
		t.Fatalf("degenerate error stats: %+v", es)
	}
	added, err := netembed.Densify(host, sys, netembed.DensifyConfig{MaxEdges: 10})
	if err != nil {
		t.Fatal(err)
	}
	if added != 10 {
		t.Fatalf("Densify added %d, want 10", added)
	}
}

func TestFacadeServiceConsolidateAlgo(t *testing.T) {
	host := netembed.NewUndirected()
	for i := 0; i < 4; i++ {
		host.AddNode(fmt.Sprintf("m%d", i), netembed.Attrs{}.SetNum("capacity", 2))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			host.MustAddEdge(netembed.NodeID(i), netembed.NodeID(j),
				netembed.Attrs{}.SetNum("maxDelay", 5))
		}
	}
	q := netembed.Line(6)
	netembed.SetDelayWindow(q, 0, 50)
	svc := netembed.NewService(netembed.NewModel(host), netembed.ServiceConfig{})
	resp, err := svc.Embed(netembed.Request{
		Query:          q,
		EdgeConstraint: "rEdge.maxDelay <= vEdge.maxDelay",
		Algorithm:      netembed.AlgoConsolidate,
		MaxResults:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) != 1 {
		t.Fatalf("%d mappings via AlgoConsolidate", len(resp.Mappings))
	}
}
