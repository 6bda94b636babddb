// Package service implements the NETEMBED service model of Fig. 1: a
// network model kept current by a monitoring feed, the mapping service
// that applications query for feasible embeddings, an optional reservation
// system that tracks allocated resources, a windowed scheduler (the
// §VIII scheduling extension), and min-cost selection among feasible
// mappings (the §VIII optimization extension).
package service

import (
	"math/rand"
	"sync"
	"time"

	"netembed/internal/graph"
	"netembed/internal/index"
)

// Model holds the authoritative description of the hosting network. It is
// a copy-on-write snapshot holder: readers take immutable *graph.Graph
// snapshots and never block writers; updates swap in a whole new graph and
// bump the version. This is what lets embedding queries run concurrently
// with monitoring updates without locks in the search path.
//
// A model also maintains a host-capability index (internal/index) kept
// in lockstep with the graph: every publish swaps in a matching index
// snapshot, and Apply — the delta path monitors should prefer — patches
// it incrementally instead of rebuilding. Readers take (graph, index)
// pairs atomically via SnapshotIndexed.
type Model struct {
	mu      sync.RWMutex
	g       *graph.Graph
	version uint64
	idx     *index.Index // built over g, at version

	// epochs tracks in-flight readers per published version so the serve
	// path can prove superseded (graph, index) snapshots are released —
	// and therefore collectable — once their last reader departs. It has
	// its own mutex; it is never taken while holding m.mu (AcquireIndexed
	// reads the triple under m.mu first, then registers the reader).
	epochs epochState
}

// epochState is the reader-tracking side of the model's copy-on-write
// snapshots. Each AcquireIndexed registers one reader against the version
// it read; Release unregisters it. When the last reader of a version that
// has since been superseded departs, nothing in the service pins that
// snapshot any longer and retired is bumped — the observable signal that
// delta churn is not accumulating old graphs behind slow requests.
type epochState struct {
	mu      sync.Mutex
	readers map[uint64]int
	retired uint64
}

// NewModel wraps an initial hosting network and builds its capability
// index. The graph must not be mutated by the caller afterwards.
func NewModel(g *graph.Graph) *Model {
	return &Model{g: g, version: 1, idx: index.Build(g, 1, index.Config{})}
}

// EnableIndex does nothing: every model is indexed from NewModel on. It
// remains for callers written when indexing was optional.
func (m *Model) EnableIndex(index.Config) {}

// Snapshot returns the current hosting network and its version. The graph
// is shared and must be treated as immutable.
func (m *Model) Snapshot() (*graph.Graph, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.g, m.version
}

// SnapshotIndexed returns the current hosting network, its capability
// index and the version, as one consistent triple. Both structures are shared and immutable.
func (m *Model) SnapshotIndexed() (*graph.Graph, *index.Index, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.g, m.idx, m.version
}

// AcquireIndexed is SnapshotIndexed plus epoch registration: the caller
// is counted as a live reader of the returned version until it calls
// Release(version). Long-running searches should prefer this pair over
// SnapshotIndexed so EpochStats can distinguish "old snapshot pinned by
// an in-flight request" from a leak. Acquire/Release are cheap (one
// mutex, no allocation on the steady path) and panic-safe via defer.
func (m *Model) AcquireIndexed() (*graph.Graph, *index.Index, uint64) {
	m.mu.RLock()
	g, idx, v := m.g, m.idx, m.version
	m.mu.RUnlock()
	m.epochs.mu.Lock()
	if m.epochs.readers == nil {
		m.epochs.readers = make(map[uint64]int)
	}
	m.epochs.readers[v]++
	m.epochs.mu.Unlock()
	return g, idx, v
}

// Release unregisters one reader acquired via AcquireIndexed. When the
// departing reader is the last on a version the model has since moved
// past, that epoch is retired: the service holds no remaining reference
// to its snapshot. Releasing a version with no registered reader is a
// no-op.
func (m *Model) Release(version uint64) {
	m.epochs.mu.Lock()
	// The version must be read inside the epoch critical section: read
	// earlier, a releaser that stalls before the lock can perform the
	// final delete against a stale "current" and a superseded epoch
	// would vanish without being counted retired. epochs.mu is never
	// taken with m.mu held, so the nested RLock cannot deadlock.
	cur := m.Version()
	switch n := m.epochs.readers[version]; {
	case n > 1:
		m.epochs.readers[version] = n - 1
	case n == 1:
		delete(m.epochs.readers, version)
		if version < cur {
			m.epochs.retired++
		}
	}
	m.epochs.mu.Unlock()
}

// EpochStats describes the model's snapshot-retirement state: the current
// version, how many distinct versions still have in-flight readers, the
// total reader count, and how many superseded epochs have been fully
// released since the model was built.
type EpochStats struct {
	Version     uint64 `json:"version"`
	LiveEpochs  int    `json:"liveEpochs"`
	LiveReaders int    `json:"liveReaders"`
	Retired     uint64 `json:"retiredEpochs"`
}

// EpochStats returns the current snapshot-retirement gauges.
func (m *Model) EpochStats() EpochStats {
	v := m.Version()
	m.epochs.mu.Lock()
	defer m.epochs.mu.Unlock()
	st := EpochStats{Version: v, LiveEpochs: len(m.epochs.readers), Retired: m.epochs.retired}
	for _, n := range m.epochs.readers {
		st.LiveReaders += n
	}
	return st
}

// Version returns the current model version.
func (m *Model) Version() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// reindex rebuilds the index after a whole-graph swap. Callers hold m.mu.
func (m *Model) reindex() {
	m.idx = index.Build(m.g, m.version, index.Config{})
}

// Update replaces the hosting network and returns the new version.
func (m *Model) Update(g *graph.Graph) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.g = g
	m.version++
	m.reindex()
	return m.version
}

// UpdateIf replaces the hosting network only when the model still holds
// the given version, returning the new version and whether the swap
// happened. It is the optimistic-concurrency primitive for writers that
// prepare an expensive successor graph outside the model lock (for
// instance coordinate-based completion) and must not clobber concurrent
// monitor updates.
func (m *Model) UpdateIf(g *graph.Graph, version uint64) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.version != version {
		return m.version, false
	}
	m.g = g
	m.version++
	m.reindex()
	return m.version, true
}

// Mutate clones the current snapshot, applies fn to the clone, swaps it in
// and returns the new version. Prefer Apply for changes expressible as a
// Delta: Mutate cannot know what fn touched, so the index is rebuilt from
// scratch.
func (m *Model) Mutate(fn func(*graph.Graph)) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.g.Clone()
	fn(next)
	m.g = next
	m.version++
	m.reindex()
	return m.version
}

// Apply publishes an incremental change: the graph is patched
// copy-on-write (attribute-only deltas share all structure with the
// previous snapshot) and the index is patched rather than rebuilt. This is the delta-native update path monitors should publish
// through. On error — and for an empty delta, which changes nothing and
// must not invalidate version-keyed caches — the model is unchanged and
// the current version is returned.
func (m *Model) Apply(d *graph.Delta) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d.Empty() {
		return m.version, nil
	}
	next, err := m.g.ApplyDelta(d)
	if err != nil {
		return m.version, err
	}
	prev := m.g
	m.g = next
	m.version++
	m.idx = m.idx.Apply(prev, next, d, m.version)
	return m.version, nil
}

// MonitorConfig shapes the simulated measurement feed.
type MonitorConfig struct {
	// JitterPct is the maximum relative delay drift per step (default 5%).
	JitterPct float64
	// EdgeFraction is the share of edges refreshed per step (default 10%).
	EdgeFraction float64
	// Interval is the period of Run (default 1s).
	Interval time.Duration
	// Seed drives the perturbation.
	Seed int64
}

func (c *MonitorConfig) applyDefaults() {
	if c.JitterPct == 0 {
		c.JitterPct = 0.05
	}
	if c.EdgeFraction == 0 {
		c.EdgeFraction = 0.10
	}
	if c.Interval == 0 {
		c.Interval = time.Second
	}
}

// Monitor simulates the monitoring infrastructure of Fig. 1 (a CoMon/
// all-pairs-ping stand-in): each step it re-measures a fraction of links,
// drifting their delay attributes, and publishes a new model version.
type Monitor struct {
	model *Model
	cfg   MonitorConfig
	rng   *rand.Rand
	steps int
}

// NewMonitor builds a monitor feeding the given model.
func NewMonitor(model *Model, cfg MonitorConfig) *Monitor {
	cfg.applyDefaults()
	return &Monitor{model: model, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Steps returns how many measurement rounds have been published.
func (mo *Monitor) Steps() int { return mo.steps }

// Step publishes one measurement round — as a Delta, the way a real
// monitoring feed republishes only the links it re-measured — and returns
// the new model version. The drifted values are computed against the
// snapshot current at the start of the step; the monitor is expected to
// be the only writer of the delay attributes it owns.
func (mo *Monitor) Step() uint64 {
	mo.steps++
	// The monitor is not the only writer: a POST /deltas can remove an
	// edge between the snapshot and Apply, failing the whole (atomic)
	// round. Re-measure against a fresh snapshot instead of silently
	// dropping the round; give up only if writer churn wins repeatedly.
	for attempt := 0; ; attempt++ {
		g, _ := mo.model.Snapshot()
		version, err := mo.model.Apply(mo.measure(g))
		if err == nil {
			return version
		}
		if attempt == 2 {
			return mo.model.Version()
		}
	}
}

// measure samples a fraction of g's edges and returns the delta drifting
// their delay attributes.
func (mo *Monitor) measure(g *graph.Graph) *graph.Delta {
	n := g.NumEdges()
	count := int(float64(n) * mo.cfg.EdgeFraction)
	if count < 1 && n > 0 {
		count = 1
	}
	var delta graph.Delta
	for i := 0; i < count; i++ {
		e := g.Edge(graph.EdgeID(mo.rng.Intn(n)))
		factor := 1 + (mo.rng.Float64()*2-1)*mo.cfg.JitterPct
		var set graph.Attrs
		for _, name := range []string{"minDelay", "avgDelay", "maxDelay"} {
			if v, ok := e.Attrs.Float(name); ok {
				set = set.SetNum(name, v*factor)
			}
		}
		if set == nil {
			continue
		}
		delta.SetEdgeAttrs = append(delta.SetEdgeAttrs, graph.EdgeAttrUpdate{
			Source: g.Node(e.From).Name,
			Target: g.Node(e.To).Name,
			Set:    set,
		})
	}
	return &delta
}

// Run publishes rounds every Interval until stop is closed.
func (mo *Monitor) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(mo.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			mo.Step()
		}
	}
}
