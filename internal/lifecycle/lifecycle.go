// Package lifecycle owns embeddings after they are placed. The paper's
// service (Fig. 1) treats an embedding as a one-shot answer, but the
// hosting network keeps changing underneath it: a monitor delta can
// silently invalidate every active placement, and an expiring lease just
// vanishes from the ledger. This package turns placements into
// long-lived, monitored objects:
//
//   - Place runs an embedding query, allocates a ledger lease for the
//     winning mapping and registers an Embedding record — the query
//     graph, the name-keyed mapping, any path witnesses, the lease and
//     the model version placed against.
//   - A health checker re-verifies every record against the live indexed
//     snapshot after each model publish: constraint violations, vanished
//     hosts and broken path witnesses (pre-screened by the reachability
//     oracle) classify the record Healthy, Degraded, Broken or Expired.
//   - A background re-optimizer — hooked into the engine's maintenance
//     tick via engine.Maintainer — computes minimal-migration repair
//     plans for degraded records: an LNS destroy/repair search seeded
//     with the old mapping (core.SeededRepair), whose objective is
//     violations fixed minus nodes moved, and commits them atomically
//     through the ledger (allocate-new-release-old in one Replace;
//     a conflict rolls back to the old placement untouched).
//
// Mappings are stored by node *name*, not NodeID: a delta that adds or
// removes nodes re-assigns NodeIDs (and one that removes an edge shifts
// EdgeIDs), so every sweep re-resolves names against the live snapshot
// and a vanished name is itself a health signal. Ledger holds are
// refreshed to live IDs on every committed repair.
package lifecycle

import (
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/service"
)

// Health classifies an embedding against the live model snapshot.
type Health string

// Embedding health states.
const (
	// Healthy: the mapping (and every path witness) verifies against the
	// live snapshot.
	Healthy Health = "healthy"
	// Degraded: verification fails — a constraint violation, a vanished
	// host, or a broken witness — and a repair has not (yet) succeeded.
	Degraded Health = "degraded"
	// Broken: the last repair attempt proved no valid placement exists
	// on the current snapshot under the current tenancy. A later model
	// change re-opens the case (the next sweep reclassifies Degraded).
	Broken Health = "broken"
	// Expired: the backing lease ended (window expiry or out-of-band
	// release); the record is kept for observability until released.
	Expired Health = "expired"
)

// Lifecycle errors.
var (
	// ErrNotFound reports an unknown embedding ID.
	ErrNotFound = errors.New("lifecycle: embedding not found")
	// ErrNoPlacement reports that the placement query found no feasible
	// mapping (or every feasible mapping lost its allocation race).
	ErrNoPlacement = errors.New("lifecycle: no feasible placement")
	// ErrConsolidate rejects consolidate placements: they are not
	// injective, so neither lease allocation nor repair verification is
	// defined for them.
	ErrConsolidate = errors.New("lifecycle: consolidate placements are not lease-managed")
	// ErrAllowSet rejects placements under an allow-set: repair searches
	// from the stored spec, which does not carry one.
	ErrAllowSet = errors.New("lifecycle: allow-sets are not supported on managed embeddings")
	// ErrExpired rejects operations on an expired embedding.
	ErrExpired = errors.New("lifecycle: embedding expired")
)

// PlaceRequest asks the manager to place and adopt a new embedding.
type PlaceRequest struct {
	// Request is the embedding query, exactly as the mapping service
	// takes it. ExcludeReserved is forced on, so the search only sees
	// hosts the ledger's free set holds (a managed placement must not
	// collide with existing tenants), and MaxResults is raised to a small
	// pool so an allocation race can fall through to the next feasible
	// mapping. Repairs later search the lease's own free set
	// (Ledger.FreeFor).
	Request service.Request
	// TTL, when positive, windows the lease [now, now+TTL); the record
	// expires with it unless renewed. Zero means hold until released.
	TTL time.Duration
}

// Info is an immutable snapshot of one managed embedding, safe to hand
// to encoders.
type Info struct {
	ID     string `json:"id"`
	Health Health `json:"health"`
	// Detail explains a non-healthy state (which constraint broke, which
	// host vanished, why the last repair failed).
	Detail string `json:"detail,omitempty"`
	// Mapping is the current placement, query node name → host node name.
	Mapping service.NamedMapping `json:"mapping"`
	// Witnesses carries path-mode witness routes (ordered by query edge
	// ID); nil for single-edge embeddings.
	Witnesses []service.PathWitness `json:"witnesses,omitempty"`
	// LeaseID is the backing reservation.
	LeaseID service.LeaseID `json:"leaseId"`
	// PlacedVersion / CheckedVersion are the model versions the embedding
	// was placed against and last verified against.
	PlacedVersion  uint64 `json:"placedVersion"`
	CheckedVersion uint64 `json:"checkedVersion"`
	// Repairs counts committed repair plans; MigratedNodes sums the
	// nodes they moved.
	Repairs       int `json:"repairs"`
	MigratedNodes int `json:"migratedNodes"`
}

// Stats is a point-in-time snapshot of the lifecycle counters, merged
// into the daemon's /stats payload next to the engine's.
type Stats struct {
	// Gauges over the registry: records whose lease still holds
	// resources, and the unhealthy subsets.
	Active   int64 `json:"embeddingsActive"`
	Degraded int64 `json:"embeddingsDegraded"`
	Broken   int64 `json:"embeddingsBroken"`
	Expired  int64 `json:"embeddingsExpired"`
	// Cumulative repair outcomes: committed plans, nodes they migrated,
	// and attempts that failed (search exhausted, budget exceeded, or
	// commit conflict).
	Repaired       int64 `json:"embeddingsRepaired"`
	MigratedNodes  int64 `json:"embeddingsMigratedNodes"`
	RepairFailures int64 `json:"embeddingsRepairFailures"`
}

// Config tunes a Manager. The zero value gets sensible defaults.
type Config struct {
	// RepairInterval paces the background re-optimizer: at most one
	// repair pass per interval, driven by the engine's maintenance tick
	// (default 5s).
	RepairInterval time.Duration
	// MaxMigrationFrac bounds each repair plan to moving at most this
	// fraction of the embedding's query nodes (rounded down, minimum 1).
	// Values <= 0 or >= 1 allow full re-embeds (default 1).
	MaxMigrationFrac float64
	// RepairTimeout bounds each per-embedding repair search (default 2s).
	RepairTimeout time.Duration
	// BeforeCommit, when non-nil, runs between computing a repair plan
	// and committing it through the ledger. It exists so conflict-path
	// tests can interpose a concurrent allocation that steals a repair
	// target; production configs leave it nil.
	BeforeCommit func(id string)
	// Objective, when enabled, tie-breaks repair plans: among the
	// minimal-migration completions SeededRepair finds, the lowest-cost
	// one under this objective wins (see core.RepairOptions.Objective).
	Objective core.Objective
}

// applyDefaults normalizes a Config in place.
//
//keycomplete:fingerprint lifecycle.Config
func (c *Config) applyDefaults() {
	if c.RepairInterval <= 0 {
		c.RepairInterval = 5 * time.Second
	}
	if c.MaxMigrationFrac <= 0 || c.MaxMigrationFrac >= 1 {
		c.MaxMigrationFrac = 1
	}
	if c.RepairTimeout <= 0 {
		c.RepairTimeout = 2 * time.Second
	}
	_ = c.BeforeCommit // test seam; nil stays nil
	_ = c.Objective    // zero value = disabled; normalized by the repair search
}

// record is the mutable registry entry behind an Info. All fields are
// guarded by Manager.mu.
type record struct {
	id    string
	query *graph.Graph
	named service.NamedMapping
	// witnesses mirrors Info.Witnesses for path-mode records.
	witnesses []service.PathWitness
	lease     service.LeaseID
	placedAt  uint64

	// The verification spec: constraint sources (kept for repair-time
	// recompilation with the tenancy guard) and their compiled programs,
	// plus path-mode options when the placement rode multi-hop witnesses.
	edgeSrc, nodeSrc   string
	edgeProg, nodeProg *expr.Program
	pathMode           bool
	pathOpts           service.PathRequestOptions

	health    Health
	detail    string
	checkedAt uint64
	repairs   int
	moved     int
}

func (r *record) info() Info {
	return Info{
		ID:             r.id,
		Health:         r.health,
		Detail:         r.detail,
		Mapping:        cloneNamed(r.named),
		Witnesses:      append([]service.PathWitness(nil), r.witnesses...),
		LeaseID:        r.lease,
		PlacedVersion:  r.placedAt,
		CheckedVersion: r.checkedAt,
		Repairs:        r.repairs,
		MigratedNodes:  r.moved,
	}
}

func cloneNamed(nm service.NamedMapping) service.NamedMapping {
	out := make(service.NamedMapping, len(nm))
	for k, v := range nm {
		out[k] = v
	}
	return out
}

// Manager is the concurrent embedding registry plus its health checker
// and background re-optimizer. It implements engine.Maintainer. Safe for
// concurrent use.
type Manager struct {
	svc *service.Service
	cfg Config

	mu      sync.Mutex
	recs    map[string]*record
	byLease map[service.LeaseID]string
	nextID  int64
	// checkedVersion is the model version the last full health sweep ran
	// against; Maintain re-sweeps only when the model moved past it.
	checkedVersion uint64
	lastRepair     time.Time

	repaired       atomic.Int64
	migratedNodes  atomic.Int64
	repairFailures atomic.Int64
}

// NewManager builds a lifecycle manager over the mapping service whose
// model and ledger it monitors. Hook it into the engine with
// Engine.SetMaintainer to drive the background health/repair loop.
func NewManager(svc *service.Service, cfg Config) *Manager {
	cfg.applyDefaults()
	return &Manager{
		svc:     svc,
		cfg:     cfg,
		recs:    make(map[string]*record),
		byLease: make(map[service.LeaseID]string),
	}
}

// Place runs the embedding query, leases the winning mapping and adopts
// it as a managed embedding. Every returned mapping is tried in order
// until one allocates cleanly, so a placement race costs a retry, not a
// failure.
//
//keycomplete:fingerprint lifecycle.PlaceRequest
func (m *Manager) Place(preq PlaceRequest) (Info, error) {
	req, ttl := preq.Request, preq.TTL
	if req.Query == nil {
		return Info{}, service.ErrNoQuery
	}
	if req.Algorithm == service.AlgoConsolidate {
		return Info{}, ErrConsolidate
	}
	if len(req.Allow) > 0 {
		// Repair plans are searched from the stored spec, which carries no
		// allow-sets; placing under one and repairing without it would lie.
		return Info{}, ErrAllowSet
	}
	req.ExcludeReserved = true
	if req.MaxResults == 0 || req.MaxResults > 8 {
		req.MaxResults = 8
	}
	resp, err := m.svc.Embed(req)
	if err != nil {
		return Info{}, err
	}
	if len(resp.Mappings) == 0 {
		return Info{}, ErrNoPlacement
	}
	edgeProg, nodeProg, err := service.CompilePrograms(req.EdgeConstraint, req.NodeConstraint)
	if err != nil {
		return Info{}, err // unreachable: Embed already compiled them
	}

	led := m.svc.Ledger()
	for i, mapping := range resp.Mappings {
		var lease service.LeaseID
		var aerr error
		if ttl > 0 {
			now := led.Now()
			lease, aerr = led.AllocateWindow(mapping, now, now.Add(ttl))
		} else {
			lease, aerr = led.Allocate(mapping)
		}
		if aerr != nil {
			if errors.Is(aerr, service.ErrConflict) {
				continue // lost the race for this mapping; try the next
			}
			return Info{}, aerr
		}
		rec := &record{
			query:     req.Query,
			named:     cloneNamed(resp.Named[i]),
			lease:     lease,
			placedAt:  resp.ModelVersion,
			edgeSrc:   req.EdgeConstraint,
			nodeSrc:   req.NodeConstraint,
			edgeProg:  edgeProg,
			nodeProg:  nodeProg,
			pathMode:  req.Algorithm == service.AlgoPathEmbed,
			pathOpts:  req.Path,
			health:    Healthy,
			checkedAt: resp.ModelVersion,
		}
		if rec.pathMode && i < len(resp.Paths) {
			rec.witnesses = append([]service.PathWitness(nil), resp.Paths[i]...)
		}
		m.mu.Lock()
		m.nextID++
		rec.id = "e" + strconv.FormatInt(m.nextID, 10)
		m.recs[rec.id] = rec
		m.byLease[lease] = rec.id
		info := rec.info() // under m.mu: the tick may already sweep rec
		m.mu.Unlock()
		return info, nil
	}
	return Info{}, ErrNoPlacement
}

// Get snapshots one embedding.
func (m *Manager) Get(id string) (Info, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return Info{}, false
	}
	return rec.info(), true
}

// List snapshots every managed embedding, ordered by ID.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.recs))
	for _, rec := range m.recs {
		out = append(out, rec.info())
	}
	sort.Slice(out, func(i, j int) bool {
		// IDs are "e<n>"; numeric order reads better than lexicographic.
		a, _ := strconv.Atoi(out[i].ID[1:])
		b, _ := strconv.Atoi(out[j].ID[1:])
		return a < b
	})
	return out
}

// Release frees the embedding's lease and forgets the record. Releasing
// an already-expired record just drops it.
func (m *Manager) Release(id string) error {
	m.mu.Lock()
	rec, ok := m.recs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	delete(m.recs, id)
	delete(m.byLease, rec.lease)
	lease := rec.lease
	m.mu.Unlock()
	if err := m.svc.Ledger().Release(lease); err != nil && !errors.Is(err, service.ErrLeaseNotFound) {
		return err
	}
	return nil
}

// Stats snapshots the lifecycle counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	var active, degraded, broken, expired int64
	for _, rec := range m.recs {
		switch rec.health {
		case Expired:
			expired++
			continue
		case Degraded:
			degraded++
		case Broken:
			broken++
		}
		active++
	}
	m.mu.Unlock()
	return Stats{
		Active:         active,
		Degraded:       degraded,
		Broken:         broken,
		Expired:        expired,
		Repaired:       m.repaired.Load(),
		MigratedNodes:  m.migratedNodes.Load(),
		RepairFailures: m.repairFailures.Load(),
	}
}
