package service

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// TestEpochAccounting pins the AcquireIndexed/Release bookkeeping: reader
// counts per version, retirement only when the last reader of a
// superseded version departs, and no-op release of unknown versions.
func TestEpochAccounting(t *testing.T) {
	g := applyHost(6, rand.New(rand.NewSource(1)))
	m := NewModel(g)

	_, _, v1 := m.AcquireIndexed()
	_, _, v1b := m.AcquireIndexed()
	if v1 != 1 || v1b != 1 {
		t.Fatalf("acquired versions = %d, %d, want 1", v1, v1b)
	}
	st := m.EpochStats()
	if st.LiveEpochs != 1 || st.LiveReaders != 2 || st.Retired != 0 {
		t.Fatalf("after two acquires: %+v", st)
	}

	// Releasing while the version is still current must not retire it.
	m.Release(v1)
	if st = m.EpochStats(); st.LiveReaders != 1 || st.Retired != 0 {
		t.Fatalf("after first release: %+v", st)
	}

	// Supersede version 1, then drop its last reader: one epoch retires.
	m.Mutate(func(g *graph.Graph) {})
	_, _, v2 := m.AcquireIndexed()
	if v2 != 2 {
		t.Fatalf("acquired version = %d, want 2", v2)
	}
	m.Release(v1)
	st = m.EpochStats()
	if st.LiveEpochs != 1 || st.LiveReaders != 1 || st.Retired != 1 {
		t.Fatalf("after superseded release: %+v", st)
	}

	// Unknown and double releases are no-ops.
	m.Release(99)
	m.Release(v1)
	if got := m.EpochStats(); got.Retired != 1 || got.LiveReaders != 1 {
		t.Fatalf("after bogus releases: %+v", got)
	}
	m.Release(v2)
	if got := m.EpochStats(); got.LiveEpochs != 0 || got.LiveReaders != 0 {
		t.Fatalf("after final release: %+v", got)
	}
}

// TestRetiredSnapshotsAreCollectable is the epoch-retirement soak: embed
// requests race a delta-churning writer (the monitoring pattern), and
// once the requests drain, every superseded (graph, index) snapshot must
// be unreachable — finalizers on the old graph headers all fire after GC,
// so delta churn cannot accumulate old model epochs behind the serve
// path. Run under -race in CI, which also exercises the epoch map's
// locking.
func TestRetiredSnapshotsAreCollectable(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 20}, rand.New(rand.NewSource(3)))
	q, _, err := topo.Subgraph(host, 4, 4, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(q, 0.5)
	model := NewModel(host)
	svc := New(model, Config{})
	host = nil // the test must not pin the initial snapshot itself

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Embed(Request{Query: q, MaxResults: 1, Timeout: time.Second}); err != nil {
					t.Errorf("embed: %v", err)
					return
				}
			}
		}()
	}

	// Churn: each round snapshots the current graph, marks it with a
	// finalizer, then supersedes it with an attribute-only delta (the
	// copy-on-write patch path monitors publish through).
	var finalized atomic.Int64
	const rounds = 40
	for i := 0; i < rounds; i++ {
		// Hold an epoch on the pre-delta version across the Apply, the way
		// an in-flight request would: releasing it afterwards retires the
		// epoch (deterministically — the concurrent embeds may or may not
		// straddle a version bump on any given run).
		snap, _, v := model.AcquireIndexed()
		runtime.SetFinalizer(snap, func(*graph.Graph) { finalized.Add(1) })
		e := snap.Edge(graph.EdgeID(i % snap.NumEdges()))
		delta := &graph.Delta{SetEdgeAttrs: []graph.EdgeAttrUpdate{{
			Source: snap.Node(e.From).Name,
			Target: snap.Node(e.To).Name,
			Set:    graph.Attrs{}.SetNum("avgDelay", float64(10+i)),
		}}}
		if _, err := model.Apply(delta); err != nil {
			t.Fatalf("apply round %d: %v", i, err)
		}
		model.Release(v)
		time.Sleep(time.Millisecond) // let the embed workers interleave
	}
	close(stop)
	wg.Wait()

	// All "rounds" finalized snapshots are now superseded and, with every
	// request drained, unreachable. Finalizers need a couple of GC cycles
	// (one to queue, one to run).
	deadline := time.Now().Add(10 * time.Second)
	for finalized.Load() < rounds && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got < rounds {
		t.Errorf("only %d/%d superseded snapshots were collected — something pins retired model epochs", got, rounds)
	}

	st := model.EpochStats()
	if st.LiveReaders != 0 || st.LiveEpochs != 0 {
		t.Errorf("drained service still shows live readers: %+v", st)
	}
	if st.Retired < rounds {
		t.Errorf("retired %d epochs across %d churn rounds, want at least %d: %+v",
			st.Retired, rounds, rounds, st)
	}
	if st.Version != rounds+1 {
		t.Errorf("version = %d, want %d", st.Version, rounds+1)
	}
}
