package service

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/topo"
)

// negotiationHost: a triangle whose links sit at exactly 50ms.
func negotiationHost() *graph.Graph {
	g := topo.Clique(3)
	for i := 0; i < g.NumEdges(); i++ {
		g.Edge(graph.EdgeID(i)).Attrs = graph.Attrs{}.SetNum("avgDelay", 50)
	}
	return g
}

const avgWindowSrc = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

func TestNegotiateFeasibleImmediately(t *testing.T) {
	svc := New(NewModel(negotiationHost()), Config{})
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 40, 60) // already contains 50ms
	resp, err := svc.Negotiate(NegotiateRequest{
		Request: Request{Query: q, EdgeConstraint: avgWindowSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rounds != 0 {
		t.Errorf("rounds = %d, want 0", resp.Rounds)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no mapping")
	}
}

func TestNegotiateRelaxesUntilFeasible(t *testing.T) {
	svc := New(NewModel(negotiationHost()), Config{})
	q := topo.Clique(3)
	// [10, 20]ms is far from the 50ms links: the window re-centers on its
	// midpoint each round and clamps at zero, reaching hi >= 50 after six
	// widenings ([7.5,22.5] → [3.75,26.25] → [0,31.9] → [0,39.8] →
	// [0,49.8] → [0,62.3]).
	topo.SetDelayWindow(q, 10, 20)
	resp, err := svc.Negotiate(NegotiateRequest{
		Request:   Request{Query: q, EdgeConstraint: avgWindowSrc},
		MaxRounds: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rounds != 6 {
		t.Errorf("rounds = %d, want 6", resp.Rounds)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("no mapping after relaxation")
	}
	// The relaxed query's window must now contain 50.
	lo, _ := resp.RelaxedQuery.Edge(0).Attrs.Float("minDelay")
	hi, _ := resp.RelaxedQuery.Edge(0).Attrs.Float("maxDelay")
	if lo > 50 || hi < 50 {
		t.Errorf("relaxed window [%v,%v] does not contain 50", lo, hi)
	}
	// The caller's query is untouched.
	origLo, _ := q.Edge(0).Attrs.Float("minDelay")
	origHi, _ := q.Edge(0).Attrs.Float("maxDelay")
	if origLo != 10 || origHi != 20 {
		t.Errorf("original query mutated: [%v,%v]", origLo, origHi)
	}
}

func TestNegotiateGivesUp(t *testing.T) {
	svc := New(NewModel(negotiationHost()), Config{})
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 10, 20)
	_, err := svc.Negotiate(NegotiateRequest{
		Request:   Request{Query: q, EdgeConstraint: avgWindowSrc},
		MaxRounds: 2, // not enough widening to reach 50ms
	})
	if err != ErrNegotiationFailed {
		t.Errorf("err = %v, want ErrNegotiationFailed", err)
	}
	if _, err := svc.Negotiate(NegotiateRequest{}); err != ErrNoQuery {
		t.Errorf("no query: %v", err)
	}
}

func TestNegotiateTopologyInfeasibleNeverSucceeds(t *testing.T) {
	// A 4-clique cannot embed into a 3-node host no matter the windows.
	svc := New(NewModel(negotiationHost()), Config{DefaultTimeout: 2 * time.Second})
	q := topo.Clique(4)
	topo.SetDelayWindow(q, 10, 20)
	if _, err := svc.Negotiate(NegotiateRequest{
		Request:   Request{Query: q, EdgeConstraint: avgWindowSrc},
		MaxRounds: 3,
	}); err == nil {
		t.Error("topologically impossible negotiation succeeded")
	}
}

func TestRelaxWindowsPointWindow(t *testing.T) {
	g := topo.Line(2)
	g.Edge(0).Attrs = graph.Attrs{}.SetNum("minDelay", 30).SetNum("maxDelay", 30)
	out := relaxWindows(g, "minDelay", "maxDelay", 1.5)
	lo, _ := out.Edge(0).Attrs.Float("minDelay")
	hi, _ := out.Edge(0).Attrs.Float("maxDelay")
	if !(lo < 30 && hi > 30) {
		t.Errorf("point window not opened: [%v,%v]", lo, hi)
	}
	// Windowless edges pass through untouched.
	g2 := topo.Line(2)
	out2 := relaxWindows(g2, "minDelay", "maxDelay", 2)
	if out2.Edge(0).Attrs.Has("minDelay") {
		t.Error("windowless edge gained attributes")
	}
	// The low end clamps at zero.
	g3 := topo.Line(2)
	g3.Edge(0).Attrs = graph.Attrs{}.SetNum("minDelay", 1).SetNum("maxDelay", 3)
	out3 := relaxWindows(g3, "minDelay", "maxDelay", 10)
	lo3, _ := out3.Edge(0).Attrs.Float("minDelay")
	if lo3 < 0 {
		t.Errorf("low end went negative: %v", lo3)
	}
}

// TestNegotiateRoundsReadOneSnapshot: a delta published while the first
// round searches does not reach the later rounds. The host is K_{20,20}
// at 10ms plus one triangle at 100ms; a triangle query with a [5, 15]
// window searches the bipartite part without an answer in round 0 (long
// enough for the search to poll its Stop hook, which publishes a delta
// removing a triangle edge), and round 1's relaxed window fits the
// triangle — on the snapshot the negotiation acquired, where it is whole.
func TestNegotiateRoundsReadOneSnapshot(t *testing.T) {
	const n = 20
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("a%d", i), nil)
	}
	for i := 0; i < n; i++ {
		b := g.AddNode(fmt.Sprintf("b%d", i), nil)
		for a := 0; a < n; a++ {
			g.MustAddEdge(graph.NodeID(a), b, graph.Attrs{}.SetNum("avgDelay", 10))
		}
	}
	t0, t1, t2 := g.AddNode("t0", nil), g.AddNode("t1", nil), g.AddNode("t2", nil)
	for _, e := range [][2]graph.NodeID{{t0, t1}, {t1, t2}, {t0, t2}} {
		g.MustAddEdge(e[0], e[1], graph.Attrs{}.SetNum("avgDelay", 100))
	}
	model := NewModel(g)
	svc := New(model, Config{})

	var published atomic.Bool
	stop := func() bool {
		if published.CompareAndSwap(false, true) {
			if _, err := model.Apply(&graph.Delta{RemoveEdges: []graph.EdgeRef{{Source: "t0", Target: "t1"}}}); err != nil {
				t.Error(err)
			}
		}
		return false
	}
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 15)
	resp, err := svc.Negotiate(NegotiateRequest{
		Request: Request{Query: q, EdgeConstraint: avgWindowSrc, Stop: stop},
		Factor:  20, // round 1: [0, 110]
	})
	if !published.Load() {
		t.Fatal("round 0 never polled its Stop hook; the test publishes nothing")
	}
	if err != nil {
		t.Fatalf("negotiation failed on the snapshot it acquired: %v", err)
	}
	if resp.Rounds != 1 || resp.ModelVersion != 1 || model.Version() != 2 {
		t.Fatalf("rounds %d at version %d (model at %d), want round 1 at version 1", resp.Rounds, resp.ModelVersion, model.Version())
	}
}
