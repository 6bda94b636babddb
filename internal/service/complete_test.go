package service

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"netembed/internal/coords"
	"netembed/internal/graph"
	"netembed/internal/topo"
)

// sparseMetricHost builds an undirected host whose measured edges are a
// random partial sample of a planar metric: the workload model for an
// open network where most pairs were never probed.
func sparseMetricHost(n, degree int, rng *rand.Rand) *graph.Graph {
	g := graph.NewUndirected()
	pts := make([][2]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
		g.AddNode("", nil)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < degree; k++ {
			j := rng.Intn(n)
			if j == i || g.HasEdge(graph.NodeID(i), graph.NodeID(j)) {
				continue
			}
			dx, dy := pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]
			d := math.Hypot(dx, dy) + 1
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), graph.Attrs{}.
				SetNum("minDelay", d*0.95).
				SetNum("avgDelay", d).
				SetNum("maxDelay", d*1.05))
		}
	}
	return g
}

// TestConcurrentAppliesLoseNoVersion: Apply is the model's one write,
// and concurrent writers each publish their own version.
func TestConcurrentAppliesLoseNoVersion(t *testing.T) {
	g := graph.NewUndirected()
	g.AddNodes(2)
	m := NewModel(g)

	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := &graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{{Node: "n0", Set: graph.Attrs{}.SetNum("w", float64(w))}}}
				if _, err := m.Apply(d); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Version(); got != 1+writers*each {
		t.Fatalf("version %d after %d applies, want %d", got, writers*each, 1+writers*each)
	}
}

func TestCompleteDensifiesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	host := sparseMetricHost(40, 5, rng)
	sparseEdges := host.NumEdges()
	m := NewModel(host)

	rep, err := Complete(m, CompletionConfig{
		Embed: coords.EmbedConfig{Rounds: 60, Config: coords.Config{Dim: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	full := 40 * 39 / 2
	if rep.Added != full-sparseEdges {
		t.Fatalf("Complete added %d edges, want %d", rep.Added, full-sparseEdges)
	}
	p := peek(m)
	snap := p.Host()
	if v := p.Version(); v != rep.Version {
		t.Fatalf("snapshot version %d, report says %d", v, rep.Version)
	}
	if snap.NumEdges() != full {
		t.Fatalf("completed model has %d edges, want %d", snap.NumEdges(), full)
	}
	if rep.Fit.Median > 0.2 {
		t.Fatalf("fit median error %.3f on planar metric, want <= 0.2", rep.Fit.Median)
	}
	// The original snapshot must be untouched (copy-on-write contract).
	if host.NumEdges() != sparseEdges {
		t.Fatalf("original graph mutated: %d edges", host.NumEdges())
	}
}

func TestCompleteRetriesPastConcurrentMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	host := sparseMetricHost(25, 4, rng)
	m := NewModel(host)
	mon := NewMonitor(m, MonitorConfig{Seed: 5})
	// Interleave monitor rounds with the completion: the synthesized
	// edges compose with the drift and land on some version among them.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			mon.Step()
		}
	}()
	rep, err := Complete(m, CompletionConfig{
		Embed: coords.EmbedConfig{Rounds: 20, Config: coords.Config{Dim: 2}},
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added == 0 {
		t.Fatal("completion added nothing")
	}
	snap := peek(m).Host()
	if snap.NumEdges() < host.NumEdges()+rep.Added {
		t.Fatalf("final model lost edges: %d", snap.NumEdges())
	}
}

// TestCompleteReturnsUnderBackToBackMonitor: a monitor publishing
// attribute deltas back to back moves the version faster than a
// completion can be computed, and the completion still lands, because
// its edges are a delta that composes with the drift rather than a
// whole graph swapped in only if nothing was published meanwhile.
func TestCompleteReturnsUnderBackToBackMonitor(t *testing.T) {
	host := sparseMetricHost(60, 5, rand.New(rand.NewSource(43)))
	m := NewModel(host)
	mon := NewMonitor(m, MonitorConfig{Seed: 9, EdgeFraction: 0.01})
	stop, monDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(monDone)
		for {
			select {
			case <-stop:
				return
			default:
				mon.Step()
			}
		}
	}()
	type result struct {
		rep CompletionReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Complete(m, CompletionConfig{Embed: coords.EmbedConfig{Rounds: 200, Config: coords.Config{Dim: 2}}})
		done <- result{rep, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
	}
	close(stop)
	<-monDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rep.Version == 0 {
		t.Fatal("Complete did not return within 10s while a monitor published back to back")
	}
	full := 60 * 59 / 2
	if r.rep.Added != full-host.NumEdges() || peek(m).Host().NumEdges() != full {
		t.Fatalf("completion added %d edges, model has %d, want %d", r.rep.Added, peek(m).Host().NumEdges(), full)
	}
	if mon.Steps() < 2 {
		t.Fatalf("the monitor published %d rounds; the test needs it racing the completion", mon.Steps())
	}
}

// TestCompletionDeltaComposesOrFails pins when a completion is redone:
// its delta applies over attribute drift, and stops resolving once an
// edge it adds exists.
func TestCompletionDeltaComposesOrFails(t *testing.T) {
	m := NewModel(sparseMetricHost(20, 3, rand.New(rand.NewSource(47))))
	cfg := CompletionConfig{Seed: 1, Embed: coords.EmbedConfig{Rounds: 20, Config: coords.Config{Dim: 2}}}
	d, rep, err := completion(peek(m).Host(), cfg)
	if err != nil || rep.Added == 0 || len(d.AddEdges) != rep.Added {
		t.Fatalf("completion: %d edges in the delta, %d reported, %v", len(d.AddEdges), rep.Added, err)
	}
	NewMonitor(m, MonitorConfig{Seed: 3, EdgeFraction: 1}).Step()
	if _, err := m.Apply(d); err != nil {
		t.Fatalf("the delta does not apply over attribute drift: %v", err)
	}

	m = NewModel(sparseMetricHost(20, 3, rand.New(rand.NewSource(47))))
	d, _, _ = completion(peek(m).Host(), cfg)
	first := d.AddEdges[0]
	if _, err := m.Apply(&graph.Delta{AddEdges: []graph.EdgeSpec{{Source: first.Source, Target: first.Target}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(d); !errors.Is(err, graph.ErrUnresolved) {
		t.Fatalf("a delta adding an existing edge applied or failed otherwise: %v", err)
	}
}

func TestCompleteErrorsOnUnmeasuredModel(t *testing.T) {
	g := graph.NewUndirected()
	g.AddNodes(5)
	g.MustAddEdge(0, 1, nil) // no delay attribute anywhere
	if _, err := Complete(NewModel(g), CompletionConfig{}); err == nil {
		t.Fatal("Complete accepted a model without measurements")
	}
}

// TestCompleteUnblocksQueries is the end-to-end motivation: a query that
// is infeasible on the sparse measured host becomes feasible once
// coordinate completion fills in the unmeasured pairs, and the predicted
// mark lets constraints opt back into measured-only links.
func TestCompleteUnblocksQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	host := sparseMetricHost(30, 3, rng)
	m := NewModel(host)
	svc := New(m, Config{})

	// A clique query needs host cliques; the sparse measured graph
	// (mean degree ~5) has essentially none of size 5.
	q := topo.Clique(5)
	topo.SetDelayWindow(q, 1, 1e6)
	req := Request{
		Query:          q,
		EdgeConstraint: "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay",
		MaxResults:     1,
	}
	before, err := svc.Embed(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Mappings) != 0 {
		t.Skip("sparse host accidentally contains a 5-clique; seed needs adjusting")
	}

	if _, err := Complete(m, CompletionConfig{
		Embed: coords.EmbedConfig{Rounds: 40, Config: coords.Config{Dim: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Embed(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Mappings) == 0 {
		t.Fatal("query still infeasible after completion")
	}

	// Restricting to measured links brings the infeasibility back.
	measuredOnly := req
	measuredOnly.EdgeConstraint += " && !has(rEdge.predicted)"
	strict, err := svc.Embed(measuredOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Mappings) != 0 {
		t.Fatal("predicted-link exclusion did not restore the sparse semantics")
	}
}
