package lifecycle

import (
	"errors"
	"fmt"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/service"
	"netembed/internal/sets"
)

// This file is the background re-optimizer: minimal-migration repair
// plans for degraded embeddings, committed atomically through the
// ledger. The objective — violations fixed minus nodes moved — is
// realized by core.SeededRepair's neighborhood-growth loop: a plan
// moving k nodes is only ever considered after every plan moving fewer
// has been proven impossible. Path-mode embeddings get a cheaper first
// tier: re-routing broken witnesses with zero migrations, falling back
// to a (budget-capped) re-embed only when the reachability oracle's
// verdict was right that nodes must move.

// Maintain implements engine.Maintainer: the engine's tick delivers the
// ledger clock and the lease IDs its expiry sweep just pruned. Expired
// leases flip their records immediately; a model change since the last
// sweep triggers re-verification; and the repair pass runs at most once
// per RepairInterval while anything is Degraded.
func (m *Manager) Maintain(now time.Time, prunedLeases []service.LeaseID) {
	m.expireLeases(prunedLeases)
	version := m.svc.Model().Version()
	m.mu.Lock()
	stale := version != m.checkedVersion
	due := m.lastRepair.IsZero() || now.Sub(m.lastRepair) >= m.cfg.RepairInterval
	m.mu.Unlock()
	if stale {
		m.CheckAll()
	}
	if due && m.anyDegraded() {
		m.mu.Lock()
		m.lastRepair = now
		m.mu.Unlock()
		m.RepairAll()
	}
}

// expireLeases marks the records owning the pruned leases Expired.
func (m *Manager) expireLeases(pruned []service.LeaseID) {
	if len(pruned) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, lease := range pruned {
		if id, ok := m.byLease[lease]; ok {
			rec := m.recs[id]
			rec.health, rec.detail = Expired, "lease window ended"
		}
	}
}

func (m *Manager) anyDegraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range m.recs {
		if rec.health == Degraded {
			return true
		}
	}
	return false
}

// RepairAll runs one repair pass: every Degraded embedding gets a
// minimal-migration plan computed and committed. It returns how many
// repairs were committed. Records the pass proves unrepairable flip to
// Broken; failed commits (target stolen) stay Degraded for the next
// pass.
func (m *Manager) RepairAll() int {
	m.mu.Lock()
	var ids []string
	for id, rec := range m.recs {
		if rec.health == Degraded {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	committed := 0
	for _, id := range ids {
		if info, err := m.Migrate(id); err == nil && info.Health == Healthy {
			committed++
		}
	}
	return committed
}

// Migrate re-verifies one embedding against the live snapshot and, if it
// is degraded, computes and commits a minimal-migration repair plan. It
// is the handler behind POST /embeddings/{id}/migrate and the unit of
// work of RepairAll. The returned Info reflects the post-repair state;
// the error reports only operational failures (unknown or expired
// records), not an unrepairable embedding — that outcome is the Broken
// state on the Info.
func (m *Manager) Migrate(id string) (Info, error) {
	host, idx, version := m.svc.Model().SnapshotIndexed()
	m.mu.Lock()
	rec, ok := m.recs[id]
	if !ok {
		m.mu.Unlock()
		return Info{}, ErrNotFound
	}
	if rec.health == Expired {
		info := rec.info()
		m.mu.Unlock()
		return info, ErrExpired
	}
	// Re-verify first: the model may have moved since the last sweep, in
	// either direction — a healthy record needs no plan.
	m.verifyLocked(rec, host, idx, version)
	if rec.health == Healthy {
		info := rec.info()
		m.mu.Unlock()
		return info, nil
	}
	m.repairLocked(rec, host, idx, version)
	info := rec.info()
	m.mu.Unlock()
	return info, nil
}

// repairLocked computes and commits one repair plan. Callers hold m.mu
// and have verified the record is Degraded (or Broken on this very
// snapshot, in which case the plan search is a cheap re-proof).
func (m *Manager) repairLocked(rec *record, host *graph.Graph, idx *index.Index, version uint64) {
	old, _ := resolveNamed(rec.query, host, rec.named)
	p, err := core.NewProblem(rec.query, host, rec.edgeProg, rec.nodeProg)
	if err != nil {
		// Structurally impossible (host smaller than query): a proof.
		m.breakRecord(rec, version, err.Error())
		return
	}
	// Plans may use only hosts Replace will accept for this lease: a free
	// slot over the lease's whole window once its own holds are set aside.
	free, err := m.svc.Ledger().FreeFor(rec.lease, host.NumNodes())
	if err != nil {
		rec.health, rec.detail = Expired, "lease gone"
		return
	}
	p.Allow = make([]*sets.Bitset, rec.query.NumNodes())
	for q := range p.Allow {
		p.Allow[q] = free
	}

	if rec.pathMode {
		m.repairPathLocked(rec, p, host, idx, version, old)
		return
	}

	res := core.SeededRepair(p, old, core.RepairOptions{
		Timeout:   m.cfg.RepairTimeout,
		MaxMoved:  m.maxMoved(rec),
		Objective: m.cfg.Objective,
	})
	if res.Mapping == nil {
		if res.Infeasible {
			m.breakRecord(rec, version, fmt.Sprintf(
				"no placement exists on snapshot v%d under current tenancy", version))
			return
		}
		m.failRepair(rec, fmt.Sprintf(
			"no repair within budget (destroyed %d, budget %d moves)", res.Destroyed, m.maxMoved(rec)))
		return
	}
	m.commitLocked(rec, host, version, res.Mapping, len(res.Moved), nil)
}

// repairPathLocked repairs a path-mode embedding in two tiers: re-route
// broken witnesses keeping every node in place (zero migrations), else a
// budget-capped re-embed.
func (m *Manager) repairPathLocked(rec *record, p *core.Problem, host *graph.Graph, idx *index.Index, version uint64, old core.Mapping) {
	if sol, ok := m.reroute(rec, host, idx, old); ok {
		m.commitLocked(rec, host, version, sol.Nodes, 0, witnessesOf(rec, host, sol))
		return
	}
	popt := pathOptions(rec, idx)
	popt.Timeout = m.cfg.RepairTimeout
	popt.MaxSolutions = 1
	res := core.PathEmbed(p, popt)
	if len(res.Solutions) == 0 {
		if res.Exhausted {
			m.breakRecord(rec, version, fmt.Sprintf(
				"no path embedding exists on snapshot v%d under current tenancy", version))
			return
		}
		m.failRepair(rec, "path re-embed timed out")
		return
	}
	sol := res.Solutions[0]
	moved := 0
	for q := range sol.Nodes {
		if q >= len(old) || sol.Nodes[q] != old[q] {
			moved++
		}
	}
	if budget := m.maxMoved(rec); budget > 0 && moved > budget {
		m.failRepair(rec, fmt.Sprintf("re-embed needs %d migrations, budget %d", moved, budget))
		return
	}
	m.commitLocked(rec, host, version, sol.Nodes, moved, witnessesOf(rec, host, sol))
}

// reroute attempts the zero-migration tier: keep every resolved node
// image and find fresh witnesses for all query edges on the live host.
// The reachability oracle rejects doomed pairs before any DFS runs.
func (m *Manager) reroute(rec *record, host *graph.Graph, idx *index.Index, old core.Mapping) (core.PathSolution, bool) {
	popt := pathOptions(rec, idx)
	hops := popt.MaxHops
	if hops <= 0 {
		hops = 3
	}
	p, err := core.NewProblem(rec.query, host, rec.edgeProg, rec.nodeProg)
	if err != nil {
		return core.PathSolution{}, false
	}
	for q := range old {
		if old[q] < 0 {
			return core.PathSolution{}, false // a vanished node forces migration
		}
	}
	sol := core.PathSolution{Nodes: old.Clone(), Paths: make(map[graph.EdgeID]graph.Path, rec.query.NumEdges())}
	for i := 0; i < rec.query.NumEdges(); i++ {
		qe := rec.query.Edge(graph.EdgeID(i))
		rs, rt := old[qe.From], old[qe.To]
		if !idx.ReachWithin(hops)[rs].Has(rt) {
			return core.PathSolution{}, false // oracle: no witness can exist
		}
		path, ok := core.FindWitness(host, qe, rs, rt, popt)
		if !ok {
			return core.PathSolution{}, false
		}
		sol.Paths[graph.EdgeID(i)] = path
	}
	if err := core.VerifyPathSolution(p, popt, sol); err != nil {
		return core.PathSolution{}, false
	}
	return sol, true
}

// commitLocked pushes a repair plan through the ledger atomically:
// Replace swaps the lease's node set to the new mapping under one ledger
// lock (allocate-new-then-release-old), so either the whole migration
// lands or — when a concurrent allocation stole a target between plan
// and commit — nothing changes and the old placement stays leased
// (rollback is the no-op).
func (m *Manager) commitLocked(rec *record, host *graph.Graph, version uint64, mapping core.Mapping, moved int, witnesses []service.PathWitness) {
	if hook := m.cfg.BeforeCommit; hook != nil {
		hook(rec.id)
	}
	err := m.svc.Ledger().Replace(rec.lease, mapping)
	switch {
	case errors.Is(err, service.ErrLeaseNotFound):
		rec.health, rec.detail = Expired, "lease gone at commit"
		return
	case err != nil:
		m.failRepair(rec, fmt.Sprintf("commit rolled back: %v", err))
		return
	}
	rec.named = makeNamed(rec.query, host, mapping)
	rec.witnesses = witnesses
	rec.health, rec.detail = Healthy, ""
	rec.checkedAt = version
	rec.repairs++
	rec.moved += moved
	m.repaired.Add(1)
	m.migratedNodes.Add(int64(moved))
}

// breakRecord records an infeasibility proof: the embedding is Broken on
// this snapshot, reported — not silently dropped — and reclassified
// Degraded the moment the model moves again.
func (m *Manager) breakRecord(rec *record, version uint64, detail string) {
	rec.health, rec.detail = Broken, detail
	rec.checkedAt = version
	m.repairFailures.Add(1)
}

// failRepair records a non-proof failure: the record stays Degraded for
// the next pass.
func (m *Manager) failRepair(rec *record, detail string) {
	rec.health = Degraded
	rec.detail = "repair failed: " + detail
	m.repairFailures.Add(1)
}

// maxMoved converts MaxMigrationFrac into the per-plan node budget.
func (m *Manager) maxMoved(rec *record) int {
	if m.cfg.MaxMigrationFrac >= 1 {
		return 0 // uncapped
	}
	budget := int(m.cfg.MaxMigrationFrac * float64(rec.query.NumNodes()))
	if budget < 1 {
		budget = 1
	}
	return budget
}

// makeNamed renders a mapping by node names against the snapshot it was
// computed on.
func makeNamed(query, host *graph.Graph, mapping core.Mapping) service.NamedMapping {
	out := make(service.NamedMapping, len(mapping))
	for q, r := range mapping {
		out[query.Node(graph.NodeID(q)).Name] = host.Node(r).Name
	}
	return out
}

// witnessesOf renders a path solution's witnesses in the service's wire
// shape, ordered by query edge ID.
func witnessesOf(rec *record, host *graph.Graph, sol core.PathSolution) []service.PathWitness {
	out := make([]service.PathWitness, rec.query.NumEdges())
	for i := 0; i < rec.query.NumEdges(); i++ {
		qe := rec.query.Edge(graph.EdgeID(i))
		path := sol.Paths[graph.EdgeID(i)]
		names := make([]string, len(path.Nodes))
		for j, r := range path.Nodes {
			names[j] = host.Node(r).Name
		}
		out[i] = service.PathWitness{
			Source: rec.query.Node(qe.From).Name,
			Target: rec.query.Node(qe.To).Name,
			Path:   names,
			Cost:   path.Cost,
		}
	}
	return out
}
