package lifecycle

import (
	"fmt"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/service"
)

// This file is the health checker: after every model publish it
// re-verifies each managed embedding against the live indexed snapshot.
// Verification is name-based — node add/remove re-assigns NodeIDs, so
// the stored name-keyed mapping is resolved fresh against the snapshot
// and a name that no longer resolves is itself a finding ("host
// vanished"), not a crash.

// CheckAll re-verifies every embedding against the current model
// snapshot and returns how many records are left unhealthy (Degraded or
// Broken). It runs automatically from the maintenance tick after each
// model change; tests and handlers may call it directly.
func (m *Manager) CheckAll() int {
	host, idx, version := m.svc.Model().SnapshotIndexed()
	led := m.svc.Ledger()
	m.mu.Lock()
	defer m.mu.Unlock()
	unhealthy := 0
	for _, rec := range m.recs {
		if rec.health == Expired {
			continue
		}
		if _, ok := led.Lease(rec.lease); !ok {
			// Released or pruned out-of-band; the record outlives the lease
			// for observability until Release drops it.
			rec.health, rec.detail = Expired, "lease gone"
			continue
		}
		m.verifyLocked(rec, host, idx, version)
		if rec.health != Healthy {
			unhealthy++
		}
	}
	m.checkedVersion = version
	return unhealthy
}

// verifyLocked re-verifies one record against the snapshot and updates
// its health in place: Healthy when everything checks out, Degraded with
// a detail otherwise. Broken is never assigned here — only a failed
// repair proves brokenness — but a Broken record that now verifies (or
// newly degrades for a different reason) is reclassified, so brokenness
// never outlives the snapshot that proved it.
func (m *Manager) verifyLocked(rec *record, host *graph.Graph, idx *index.Index, version uint64) {
	ok, detail := m.verifySpec(rec, host, idx)
	switch {
	case ok:
		rec.health, rec.detail = Healthy, ""
	case rec.health == Broken && rec.checkedAt == version:
		// The infeasibility proof was made against this very snapshot;
		// it still stands. Keep the class, refresh the finding.
		rec.detail = "infeasible on last repair; " + detail
	default:
		rec.health, rec.detail = Degraded, detail
	}
	rec.checkedAt = version
}

// verifySpec runs the full verification for one record: name resolution,
// injectivity, constraint verification, and — for path-mode records —
// witness route validation pre-screened by the reachability oracle.
func (m *Manager) verifySpec(rec *record, host *graph.Graph, idx *index.Index) (bool, string) {
	mapping, missing := resolveNamed(rec.query, host, rec.named)
	if missing != "" {
		return false, fmt.Sprintf("host node %q vanished", missing)
	}
	p, err := core.NewProblem(rec.query, host, rec.edgeProg, rec.nodeProg)
	if err != nil {
		// E.g. the host shrank below the query size: structurally doomed
		// until the model grows back.
		return false, err.Error()
	}
	if !rec.pathMode {
		if err := p.Verify(mapping); err != nil {
			return false, err.Error()
		}
		return true, ""
	}

	popt := pathOptions(rec, nil)
	sol, werr := resolveWitnesses(rec, host, mapping)
	if werr != "" {
		// The route itself broke. The reachability oracle distinguishes a
		// re-routable break (endpoints still connected within the hop
		// bound — a zero-migration repair) from one that forces moves.
		return false, werr + "; " + reachDetail(rec, idx, mapping, popt.MaxHops)
	}
	if err := core.VerifyPathSolution(p, popt, sol); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// resolveNamed maps the record's name-keyed mapping onto the live
// snapshot. The returned mapping has -1 for vanished hosts; missing
// names the first one (empty when all resolved).
func resolveNamed(query, host *graph.Graph, named service.NamedMapping) (core.Mapping, string) {
	mapping := make(core.Mapping, query.NumNodes())
	missing := ""
	for q := 0; q < query.NumNodes(); q++ {
		qName := query.Node(graph.NodeID(q)).Name
		r, ok := host.NodeByName(named[qName])
		if !ok {
			mapping[q] = -1
			if missing == "" {
				missing = named[qName]
			}
			continue
		}
		mapping[q] = r
	}
	return mapping, missing
}

// resolveWitnesses rebuilds the record's witness routes as live host
// paths: every stored node name must still resolve and every hop must
// still be a host edge. A broken hop returns a non-empty finding.
func resolveWitnesses(rec *record, host *graph.Graph, mapping core.Mapping) (core.PathSolution, string) {
	sol := core.PathSolution{Nodes: mapping, Paths: make(map[graph.EdgeID]graph.Path, len(rec.witnesses))}
	if len(rec.witnesses) != rec.query.NumEdges() {
		return sol, fmt.Sprintf("have %d witnesses for %d query edges", len(rec.witnesses), rec.query.NumEdges())
	}
	for i, w := range rec.witnesses {
		var path graph.Path
		for j, name := range w.Path {
			r, ok := host.NodeByName(name)
			if !ok {
				return sol, fmt.Sprintf("witness %d: host node %q vanished", i, name)
			}
			path.Nodes = append(path.Nodes, r)
			if j == 0 {
				continue
			}
			e, ok := host.EdgeBetween(path.Nodes[j-1], r)
			if !ok {
				return sol, fmt.Sprintf("witness %d: host edge %s-%s vanished", i, w.Path[j-1], name)
			}
			path.Edges = append(path.Edges, e)
		}
		path.Cost = w.Cost
		sol.Paths[graph.EdgeID(i)] = path
	}
	return sol, ""
}

// reachDetail consults the hop-bounded reachability oracle: for each
// query edge, are the mapped endpoints still connected within the hop
// bound? Connected endpoints mean the break is re-routable with zero
// migrations; a disconnected pair forces node moves.
func reachDetail(rec *record, idx *index.Index, mapping core.Mapping, maxHops int) string {
	if maxHops <= 0 {
		maxHops = 3 // the core searcher's default hop bound
	}
	rows := idx.ReachWithin(maxHops)
	for i := 0; i < rec.query.NumEdges(); i++ {
		qe := rec.query.Edge(graph.EdgeID(i))
		rs, rt := mapping[qe.From], mapping[qe.To]
		if rs < 0 || rt < 0 {
			continue // vanished endpoints are reported by the caller
		}
		if !rows[rs].Has(rt) {
			return fmt.Sprintf("endpoints of query edge %d unreachable within %d hops: repair must migrate", i, maxHops)
		}
	}
	return "all endpoints reachable: re-routable without migration"
}

// pathOptions assembles the core options the record's witnesses are
// verified (and re-routed) under. The optional index supplies the
// reachability oracle to the path searcher.
func pathOptions(rec *record, idx *index.Index) core.PathOptions {
	return core.PathOptions{
		MaxHops:   rec.pathOpts.MaxHops,
		DelayAttr: rec.pathOpts.DelayAttr,
		WindowLo:  rec.pathOpts.WindowLo,
		WindowHi:  rec.pathOpts.WindowHi,
		Metrics:   rec.pathOpts.Metrics,
		Index:     idx,
	}
}
