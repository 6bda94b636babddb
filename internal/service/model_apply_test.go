package service

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/topo"
)

func applyHost(n int, rng *rand.Rand) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("h%d", i), graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(4))))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.4 {
				g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("avgDelay", rng.Float64()*100))
			}
		}
	}
	return g
}

func TestModelApply(t *testing.T) {
	g := applyHost(8, rand.New(rand.NewSource(1)))
	m := NewModel(g)

	v, err := m.Apply(&graph.Delta{
		SetNodeAttrs: []graph.NodeAttrUpdate{{Node: "h0", Set: graph.Attrs{}.SetNum("cpu", 9)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	g2, idx, v2 := m.SnapshotIndexed()
	if v2 != 2 || idx == nil || idx.Version() != 2 {
		t.Fatalf("snapshot (v=%d, idx=%v) out of lockstep", v2, idx)
	}
	if cpu, _ := g2.Node(0).Attrs.Float("cpu"); cpu != 9 {
		t.Fatalf("cpu = %v, want 9", cpu)
	}
	if col := idx.ColumnsFor(g2).NodeColumn("cpu"); col == nil || col.Tags[0] != graph.TagNumber || col.Nums[0] != 9 {
		t.Error("snapshot column did not absorb the attribute delta")
	}
	// The pre-delta snapshot is untouched.
	if cpu, _ := g.Node(0).Attrs.Float("cpu"); cpu != 1+0 && cpu == 9 {
		t.Error("delta mutated the old snapshot")
	}

	// A failing delta leaves version and graph alone.
	if _, err := m.Apply(&graph.Delta{RemoveNodes: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown node")
	}
	if m.Version() != 2 {
		t.Error("failed Apply bumped the version")
	}

	// An empty delta is a no-op: same version back, no cache-invalidating
	// bump, index untouched.
	for _, d := range []*graph.Delta{nil, {}} {
		v, err := m.Apply(d)
		if err != nil || v != 2 {
			t.Fatalf("Apply(empty) = (%d, %v), want (2, nil)", v, err)
		}
	}
	if _, idx, v := m.SnapshotIndexed(); v != 2 || idx.Version() != 2 {
		t.Errorf("empty delta moved the snapshot to v=%d/idx=%d", v, idx.Version())
	}
}

// TestMonitorStepRetriesPastConcurrentDelta pins Monitor.Step's behavior
// when another writer invalidates its snapshot mid-round: the round is
// re-measured against a fresh snapshot, not silently discarded.
func TestMonitorStepRetriesPastConcurrentDelta(t *testing.T) {
	m := NewModel(applyHost(8, rand.New(rand.NewSource(3))))
	mo := NewMonitor(m, MonitorConfig{Seed: 3, EdgeFraction: 1})

	// Race one structural delta against monitor rounds: whichever
	// interleaving happens, every Step must land its measurements.
	g, _ := m.Snapshot()
	e := g.Edge(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Apply(&graph.Delta{RemoveEdges: []graph.EdgeRef{{
			Source: g.Node(e.From).Name, Target: g.Node(e.To).Name,
		}}})
	}()
	vBefore := m.Version()
	for i := 0; i < 5; i++ {
		if v := mo.Step(); v <= vBefore {
			t.Fatalf("step %d published nothing (version %d after %d)", i, v, vBefore)
		} else {
			vBefore = v
		}
	}
	<-done
}

// TestConcurrentApplySnapshotUpdateIf races every Model writer against
// snapshot readers under -race: Apply publishing attribute and edge
// deltas, Mutate cloning, UpdateIf doing optimistic swaps, and readers
// asserting the (graph, index, version) triple stays in lockstep.
func TestConcurrentApplySnapshotUpdateIf(t *testing.T) {
	m := NewModel(applyHost(16, rand.New(rand.NewSource(2))))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var applied, swapped atomic.Int64

	wg.Add(1)
	go func() { // delta writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := &graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{{
				Node: fmt.Sprintf("h%d", rng.Intn(16)),
				Set:  graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(8))),
			}}}
			if _, err := m.Apply(d); err != nil {
				t.Error(err)
				return
			}
			applied.Add(1)
		}
	}()

	wg.Add(1)
	go func() { // structural delta writer: toggles one edge
		defer wg.Done()
		g0, _ := m.Snapshot()
		u0, _ := g0.NodeByName("h0")
		v0, _ := g0.NodeByName("h1")
		present := g0.HasEdge(u0, v0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var d graph.Delta
			if present {
				d.RemoveEdges = []graph.EdgeRef{{Source: "h0", Target: "h1"}}
			} else {
				d.AddEdges = []graph.EdgeSpec{{Source: "h0", Target: "h1"}}
			}
			if _, err := m.Apply(&d); err != nil {
				t.Error(err)
				return
			}
			present = !present
		}
	}()

	var swapTries atomic.Int64
	wg.Add(1)
	go func() { // optimistic whole-graph swapper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g, v := m.Snapshot()
			clone := g.Clone()
			swapTries.Add(1)
			if _, ok := m.UpdateIf(clone, v); ok {
				swapped.Add(1)
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, idx, v := m.SnapshotIndexed()
				if idx.Version() != v {
					t.Errorf("index version %d != model version %d", idx.Version(), v)
					return
				}
				if idx.NumNodes() != g.NumNodes() {
					t.Errorf("index universe %d != graph %d", idx.NumNodes(), g.NumNodes())
					return
				}
				// The snapshot graph must stay self-consistent even while
				// writers publish successors.
				if err := g.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	// The optimistic swapper may be starved by the delta writers while
	// they run (losing every version race is legal); it must at least
	// have been attempting, and must succeed once the contention stops.
	if applied.Load() == 0 || swapTries.Load() == 0 {
		t.Fatalf("writers made no progress (applied=%d, swap attempts=%d)", applied.Load(), swapTries.Load())
	}
	g, v := m.Snapshot()
	if _, ok := m.UpdateIf(g.Clone(), v); !ok {
		t.Fatal("uncontended UpdateIf failed")
	}
	if _, idx, v2 := m.SnapshotIndexed(); idx.Version() != v2 {
		t.Fatal("index out of lockstep after UpdateIf")
	}
	t.Logf("applied=%d swapAttempts=%d swapWins=%d", applied.Load(), swapTries.Load(), swapped.Load())
}

// TestDeltaMidSearchKeepsSnapshot pins the copy-on-write guarantee end to
// end: a search that began on version v answers against version v's graph
// even when deltas land mid-search; its mappings verify against the
// retained historical snapshot, never the moving head.
func TestDeltaMidSearchKeepsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewModel(applyHost(20, rng))
	svc := New(m, Config{})

	// Retain every published graph so responses can be checked against
	// the exact snapshot they claim to have answered.
	history := map[uint64]*graph.Graph{}
	var histMu sync.Mutex
	g, v := m.Snapshot()
	history[v] = g

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // monitor hammering deltas mid-search
		defer wg.Done()
		r := rand.New(rand.NewSource(8))
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := &graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{{
				Node: fmt.Sprintf("h%d", r.Intn(20)),
				Set:  graph.Attrs{}.SetNum("cpu", float64(1+r.Intn(8))),
			}}}
			histMu.Lock()
			if _, err := m.Apply(d); err != nil {
				histMu.Unlock()
				t.Error(err)
				return
			}
			ng, nv := m.Snapshot()
			history[nv] = ng
			histMu.Unlock()
			time.Sleep(100 * time.Microsecond) // bound the history growth
		}
	}()

	for i := 0; i < 30; i++ {
		resp, err := svc.Embed(Request{
			Query:          topo.Ring(5),
			NodeConstraint: "rNode.cpu >= 1",
			MaxResults:     20,
		})
		if err != nil {
			t.Fatal(err)
		}
		histMu.Lock()
		snap := history[resp.ModelVersion]
		histMu.Unlock()
		if snap == nil {
			t.Fatalf("response claims unknown model version %d", resp.ModelVersion)
		}
		p, err := core.NewProblem(topo.Ring(5), snap, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range resp.Mappings {
			if err := p.Verify(mp); err != nil {
				t.Fatalf("mapping does not verify against its own snapshot: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
