// Package service implements the NETEMBED service model of Fig. 1: a
// network model kept current by a monitoring feed, the mapping service
// that applications query for feasible embeddings, an optional reservation
// system that tracks allocated resources, a windowed scheduler (the
// §VIII scheduling extension), and min-cost selection among feasible
// mappings (the §VIII optimization extension).
//
// The model has one read and one write. Model.Acquire pins a Snapshot —
// graph, capability index and version, published together — until its
// Release; every reader in the service goes through it, and an operation
// that runs several searches (a negotiation, a schedule scan, a batch, a
// lifecycle sweep) keeps one snapshot throughout. Model.Apply publishes a
// graph.Delta as the next snapshot; replacing the whole network is a
// delta too (graph.Replacement). Model.EnableIndex, Model.AcquireIndexed
// and Model.Release(version) remain only for benchmark/ until ROADMAP
// item 0.
package service

import (
	"math/rand"
	"sync"
	"time"

	"netembed/internal/graph"
	"netembed/internal/index"
)

// Model holds the authoritative description of the hosting network as a
// sequence of immutable snapshots, read only through Acquire and changed
// only by Apply. A held snapshot blocks no writer and sees no write made
// after it was acquired, so a search, a health sweep or a multi-round
// negotiation reads one state of the network however many deltas
// monitors publish meanwhile.
type Model struct {
	// mu guards the published snapshot and the reader counts, so a reader
	// is registered against exactly the version it was handed.
	mu  sync.Mutex
	cur Snapshot
	// readers counts in-flight readers per version, so the serve path can
	// prove superseded snapshots are released — and therefore
	// collectable — once their last reader departs; retired counts the
	// superseded versions whose last reader has.
	readers map[uint64]int
	retired uint64
}

// Snapshot is one published state of the model: the hosting network, its
// capability index built over that very graph, and the version naming
// both. It is immutable; the graph and the index are shared and must not
// be written. A Snapshot comes only from Model.Acquire and pins its
// version until Release.
type Snapshot struct {
	host    *graph.Graph
	idx     *index.Index
	version uint64
	model   *Model
}

// Host returns the snapshot's hosting network.
func (p Snapshot) Host() *graph.Graph { return p.host }

// Index returns the capability index built over Host.
func (p Snapshot) Index() *index.Index { return p.idx }

// Version returns the model version the snapshot was published as.
func (p Snapshot) Version() uint64 { return p.version }

// Release unpins the snapshot; it must be called exactly once per Acquire.
func (p Snapshot) Release() { p.model.Release(p.version) }

// NewModel wraps an initial hosting network and builds its capability
// index. The graph must not be mutated by the caller afterwards.
func NewModel(g *graph.Graph) *Model {
	m := &Model{readers: make(map[uint64]int)}
	m.cur = Snapshot{host: g, idx: index.Build(g, 1, index.Config{}), version: 1, model: m}
	return m
}

// Acquire pins the current snapshot: the caller is counted as a live
// reader of its version until it calls Release, so EpochStats can tell
// an old snapshot pinned by an in-flight reader from a leak.
func (m *Model) Acquire() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readers[m.cur.version]++
	return m.cur
}

// EnableIndex does nothing: every model is indexed from NewModel on.
// Kept for benchmark/ until ROADMAP item 0.
func (m *Model) EnableIndex(index.Config) {}

// AcquireIndexed is Acquire returning the snapshot's parts; the caller
// releases with Release(version). Kept for benchmark/ until ROADMAP item 0.
func (m *Model) AcquireIndexed() (*graph.Graph, *index.Index, uint64) {
	p := m.Acquire()
	return p.host, p.idx, p.version
}

// Release unregisters one reader of version. When the departing reader
// is the last on a version the model has since moved past, that epoch is
// retired: the service holds no remaining reference to its snapshot.
// Releasing a version with no registered reader is a no-op. Callers
// holding a Snapshot call its Release; this form is kept for benchmark/
// until ROADMAP item 0.
func (m *Model) Release(version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch n := m.readers[version]; {
	case n > 1:
		m.readers[version] = n - 1
	case n == 1:
		delete(m.readers, version)
		if version < m.cur.version {
			m.retired++
		}
	}
}

// EpochStats describes the model's snapshot-retirement state: the current
// version, how many distinct versions still have in-flight readers, the
// total reader count, and how many superseded epochs have been fully
// released since the model was built — and what the current snapshot's
// range indexes and arc-slot layouts retain (index.Columns.Bytes).
type EpochStats struct {
	Version         uint64 `json:"version"`
	LiveEpochs      int    `json:"liveEpochs"`
	LiveReaders     int    `json:"liveReaders"`
	Retired         uint64 `json:"retiredEpochs"`
	RangeIndexBytes int    `json:"rangeIndexBytes"`
}

// EpochStats returns the current snapshot-retirement gauges. Its own
// read of the snapshot is released before the readers are counted.
func (m *Model) EpochStats() EpochStats {
	p := m.Acquire()
	st := EpochStats{Version: p.version, RangeIndexBytes: p.idx.ColumnsFor(p.host).Bytes()}
	p.Release()
	m.mu.Lock()
	defer m.mu.Unlock()
	st.LiveEpochs, st.Retired = len(m.readers), m.retired
	for _, n := range m.readers {
		st.LiveReaders += n
	}
	return st
}

// Version returns the current model version.
func (m *Model) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.version
}

// Apply publishes an incremental change as the next snapshot: the graph
// is patched copy-on-write (attribute-only deltas share all structure
// with the previous snapshot) and the index is patched rather than
// rebuilt. It is the model's only write. On error — and for an empty
// delta, which changes nothing and must not invalidate version-keyed
// caches — the model is unchanged and the current version is returned.
func (m *Model) Apply(d *graph.Delta) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.cur
	if d.Empty() {
		return prev.version, nil
	}
	next, err := prev.host.ApplyDelta(d)
	if err != nil {
		return prev.version, err
	}
	v := prev.version + 1
	m.cur = Snapshot{host: next, idx: prev.idx.Apply(prev.host, next, d, v), version: v, model: m}
	return v, nil
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
		snap := mo.model.Acquire()
		d := mo.measure(snap.Host())
		snap.Release()
		version, err := mo.model.Apply(d)
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
