package lifecycle

import (
	"errors"
	"strings"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// cpuClique builds K_n where every node carries cpu=10 (or the override
// for listed IDs), the minimal substrate where any injective line query
// fits and a single attribute delta can break one placement node.
func cpuClique(n int, override map[int]float64) *graph.Graph {
	g := topo.Clique(n)
	for i := 0; i < n; i++ {
		cpu := 10.0
		if v, ok := override[i]; ok {
			cpu = v
		}
		g.Node(graph.NodeID(i)).Attrs = g.Node(graph.NodeID(i)).Attrs.SetNum("cpu", cpu)
	}
	return g
}

func newManager(t testing.TB, host *graph.Graph, cfg Config) (*service.Model, *service.Service, *Manager) {
	t.Helper()
	model := service.NewModel(host)
	svc := service.New(model, service.Config{})
	return model, svc, NewManager(svc, cfg)
}

func placeLine3(t testing.TB, m *Manager, constraint string) Info {
	t.Helper()
	info, err := m.Place(PlaceRequest{Request: service.Request{
		Query:          topo.Line(3),
		NodeConstraint: constraint,
		Timeout:        10 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func setCPU(t testing.TB, model *service.Model, node string, cpu float64) {
	t.Helper()
	if _, err := model.Apply(&graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{
		{Node: node, Set: graph.Attrs{}.SetNum("cpu", cpu)},
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceAdoptsEmbedding(t *testing.T) {
	_, svc, m := newManager(t, cpuClique(5, nil), Config{})
	info := placeLine3(t, m, "rNode.cpu >= 5")

	if info.ID == "" || info.Health != Healthy {
		t.Fatalf("placed info = %+v", info)
	}
	if len(info.Mapping) != 3 {
		t.Fatalf("mapping %v, want 3 entries", info.Mapping)
	}
	if info.PlacedVersion != 1 || info.CheckedVersion != 1 {
		t.Errorf("versions placed=%d checked=%d", info.PlacedVersion, info.CheckedVersion)
	}
	lease, ok := svc.Ledger().Lease(info.LeaseID)
	if !ok || len(lease.Nodes) != 3 {
		t.Fatalf("lease %v ok=%v", lease, ok)
	}
	got, ok := m.Get(info.ID)
	if !ok || got.ID != info.ID {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	if l := m.List(); len(l) != 1 || l[0].ID != info.ID {
		t.Fatalf("List = %v", l)
	}
	if s := m.Stats(); s.Active != 1 || s.Degraded != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if err := m.Release(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Ledger().Lease(info.LeaseID); ok {
		t.Error("release did not free the lease")
	}
	if _, ok := m.Get(info.ID); ok {
		t.Error("released record still listed")
	}
	if err := m.Release(info.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double release: %v", err)
	}
}

func TestPlaceRejections(t *testing.T) {
	_, _, m := newManager(t, cpuClique(5, nil), Config{})
	if _, err := m.Place(PlaceRequest{}); !errors.Is(err, service.ErrNoQuery) {
		t.Errorf("nil query: %v", err)
	}
	if _, err := m.Place(PlaceRequest{Request: service.Request{
		Query:     topo.Line(2),
		Algorithm: service.AlgoConsolidate,
	}}); !errors.Is(err, ErrConsolidate) {
		t.Errorf("consolidate: %v", err)
	}
	if _, err := m.Place(PlaceRequest{Request: service.Request{
		Query:          topo.Line(3),
		NodeConstraint: "rNode.cpu >= 1000",
	}}); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("infeasible: %v", err)
	}
}

// TestPlaceTreatsBlankConstraintAsNone: Place compiles its record's
// programs like the search it just ran, so a whitespace-only constraint
// is no constraint there too, not a compile error after the search.
func TestPlaceTreatsBlankConstraintAsNone(t *testing.T) {
	_, _, m := newManager(t, cpuClique(5, nil), Config{})
	info := placeLine3(t, m, "  \t ")
	if info.Health != Healthy || len(info.Mapping) != 3 {
		t.Fatalf("placed info = %+v", info)
	}
	if rec := m.recs[info.ID]; rec.nodeProg != nil || rec.edgeProg != nil {
		t.Errorf("blank constraints compiled to programs: node %v edge %v", rec.nodeProg, rec.edgeProg)
	}
}

// TestPlaceRetriesOnAllocationRace pins the fall-through: when the best
// mapping's nodes are already leased out-of-band, Place adopts the next
// feasible mapping instead of failing.
func TestPlaceRetriesOnAllocationRace(t *testing.T) {
	_, svc, m := newManager(t, cpuClique(6, nil), Config{})
	first := placeLine3(t, m, "rNode.cpu >= 5")
	second := placeLine3(t, m, "rNode.cpu >= 5")
	for name := range second.Mapping {
		if second.Mapping[name] == first.Mapping[name] {
			lease1, _ := svc.Ledger().Lease(first.LeaseID)
			lease2, _ := svc.Ledger().Lease(second.LeaseID)
			for _, r1 := range lease1.Nodes {
				for _, r2 := range lease2.Nodes {
					if r1 == r2 {
						t.Fatalf("two managed embeddings share host node %d", r1)
					}
				}
			}
		}
	}
}

func TestCheckAllDegradesAndRecovers(t *testing.T) {
	model, _, m := newManager(t, cpuClique(5, nil), Config{})
	info := placeLine3(t, m, "rNode.cpu >= 5")
	broken := info.Mapping["n1"] // the query's middle node's host

	setCPU(t, model, broken, 1)
	if unhealthy := m.CheckAll(); unhealthy != 1 {
		t.Fatalf("CheckAll = %d, want 1", unhealthy)
	}
	got, _ := m.Get(info.ID)
	if got.Health != Degraded || got.Detail == "" {
		t.Fatalf("after break: %+v", got)
	}
	if got.CheckedVersion != 2 {
		t.Errorf("checked version %d", got.CheckedVersion)
	}
	if s := m.Stats(); s.Degraded != 1 || s.Active != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// The model healing itself clears the finding without a repair.
	setCPU(t, model, broken, 10)
	if unhealthy := m.CheckAll(); unhealthy != 0 {
		t.Fatalf("CheckAll after heal = %d", unhealthy)
	}
	got, _ = m.Get(info.ID)
	if got.Health != Healthy || got.Repairs != 0 {
		t.Fatalf("after heal: %+v", got)
	}
}

func TestCheckAllReportsVanishedHost(t *testing.T) {
	model, _, m := newManager(t, cpuClique(6, nil), Config{})
	info := placeLine3(t, m, "rNode.cpu >= 5")
	gone := info.Mapping["n2"]
	if _, err := model.Apply(&graph.Delta{RemoveNodes: []string{gone}}); err != nil {
		t.Fatal(err)
	}
	m.CheckAll()
	got, _ := m.Get(info.ID)
	if got.Health != Degraded || !strings.Contains(got.Detail, gone) {
		t.Fatalf("vanished host: %+v", got)
	}
}

func TestMigrateRepairsWithOneMove(t *testing.T) {
	model, svc, m := newManager(t, cpuClique(6, nil), Config{})
	info := placeLine3(t, m, "rNode.cpu >= 5")
	brokenName := info.Mapping["n1"]
	brokenID, _ := model.Snapshot()
	broken, _ := brokenID.NodeByName(brokenName)

	setCPU(t, model, brokenName, 1)
	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Healthy {
		t.Fatalf("after migrate: %+v", got)
	}
	if got.Repairs != 1 || got.MigratedNodes != 1 {
		t.Fatalf("repairs=%d moved=%d, want 1/1", got.Repairs, got.MigratedNodes)
	}
	if got.Mapping["n0"] != info.Mapping["n0"] || got.Mapping["n2"] != info.Mapping["n2"] {
		t.Errorf("repair moved a pinned node: %v -> %v", info.Mapping, got.Mapping)
	}
	if got.Mapping["n1"] == brokenName {
		t.Error("repair kept the broken host")
	}
	// The ledger followed the migration: the vacated node is allocatable,
	// the new one is held.
	if _, err := svc.Ledger().Allocate(core.Mapping{broken}); err != nil {
		t.Errorf("vacated node not freed: %v", err)
	}
	host, _ := model.Snapshot()
	target, _ := host.NodeByName(got.Mapping["n1"])
	if _, err := svc.Ledger().Allocate(core.Mapping{target}); !errors.Is(err, service.ErrConflict) {
		t.Errorf("migrated-to node not held: %v", err)
	}
	if s := m.Stats(); s.Repaired != 1 || s.MigratedNodes != 1 || s.RepairFailures != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Idempotent: a healthy embedding migrates as a no-op.
	again, err := m.Migrate(info.ID)
	if err != nil || again.Repairs != 1 {
		t.Fatalf("migrate healthy: %+v, %v", again, err)
	}
}

func TestMigrateErrors(t *testing.T) {
	_, _, m := newManager(t, cpuClique(5, nil), Config{})
	if _, err := m.Migrate("e999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: %v", err)
	}
	info := placeLine3(t, m, "rNode.cpu >= 5")
	m.Maintain(time.Now(), []service.LeaseID{info.LeaseID})
	if _, err := m.Migrate(info.ID); !errors.Is(err, ErrExpired) {
		t.Errorf("expired: %v", err)
	}
	got, _ := m.Get(info.ID)
	if got.Health != Expired {
		t.Fatalf("pruned lease: %+v", got)
	}
	if s := m.Stats(); s.Expired != 1 || s.Active != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestRepairRespectsMigrationBudget pins MaxMigrationFrac: a repair that
// would move more than the budgeted fraction of the query is refused and
// the record stays Degraded with the budget in the finding.
func TestRepairRespectsMigrationBudget(t *testing.T) {
	model, _, m := newManager(t, cpuClique(8, nil), Config{MaxMigrationFrac: 0.34})
	info := placeLine3(t, m, "rNode.cpu >= 5") // budget: 1 of 3 nodes
	setCPU(t, model, info.Mapping["n0"], 1)
	setCPU(t, model, info.Mapping["n1"], 1)

	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Degraded || !strings.Contains(got.Detail, "budget") {
		t.Fatalf("over-budget repair: %+v", got)
	}
	if s := m.Stats(); s.RepairFailures != 1 || s.Repaired != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Raising the budget is a config decision; simulate by healing one
	// node so the remaining break fits the budget.
	setCPU(t, model, info.Mapping["n0"], 10)
	got, err = m.Migrate(info.ID)
	if err != nil || got.Health != Healthy || got.MigratedNodes != 1 {
		t.Fatalf("in-budget repair: %+v, %v", got, err)
	}
}

// TestMigrateRollsBackOnStolenTarget pins the commit conflict path: a
// concurrent allocation takes every repair target between plan and
// commit, the ledger Replace refuses, and the old placement survives
// untouched — rollback is the no-op.
func TestMigrateRollsBackOnStolenTarget(t *testing.T) {
	var (
		model *service.Model
		svc   *service.Service
	)
	var stolen []service.LeaseID
	steal := true
	cfg := Config{BeforeCommit: func(id string) {
		if !steal {
			return
		}
		// Take the only free eligible spares (the clique has 5 nodes, 3
		// leased by the embedding).
		for _, r := range []graph.NodeID{3, 4} {
			if id, err := svc.Ledger().Allocate(core.Mapping{r}); err == nil {
				stolen = append(stolen, id)
			}
		}
	}}
	host := cpuClique(5, nil)
	model = service.NewModel(host)
	svc = service.New(model, service.Config{})
	m := NewManager(svc, cfg)

	info := placeLine3(t, m, "rNode.cpu >= 5")
	setCPU(t, model, info.Mapping["n1"], 1)

	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Degraded || !strings.Contains(got.Detail, "rolled back") {
		t.Fatalf("stolen target: %+v", got)
	}
	lease, ok := svc.Ledger().Lease(info.LeaseID)
	if !ok {
		t.Fatal("lease vanished on rollback")
	}
	host0, _ := model.Snapshot()
	for i, name := range []string{info.Mapping["n0"], info.Mapping["n1"], info.Mapping["n2"]} {
		r, _ := host0.NodeByName(name)
		if lease.Nodes[i] != r {
			t.Fatalf("rollback mutated the lease: %v", lease.Nodes)
		}
	}
	if s := m.Stats(); s.RepairFailures != 1 || s.Repaired != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// Free the stolen nodes; the next pass completes the migration.
	steal = false
	for _, id := range stolen {
		if err := svc.Ledger().Release(id); err != nil {
			t.Fatal(err)
		}
	}
	got, err = m.Migrate(info.ID)
	if err != nil || got.Health != Healthy || got.Repairs != 1 {
		t.Fatalf("retry after steal: %+v, %v", got, err)
	}
}

// scheduleSpares places an open-ended line-3 embedding on K_5, leases the
// spare hosts listed by index (0 or 1 of the two the embedding leaves)
// for a window a day ahead, and breaks the embedding's middle node.
func scheduleSpares(t *testing.T, leased ...int) (*Manager, Info, []string) {
	t.Helper()
	model, svc, m := newManager(t, cpuClique(5, nil), Config{})
	info := placeLine3(t, m, "rNode.cpu >= 5")
	host, _ := model.Snapshot()
	var spares []string
	for r := 0; r < host.NumNodes(); r++ {
		name := host.Node(graph.NodeID(r)).Name
		if name != info.Mapping["n0"] && name != info.Mapping["n1"] && name != info.Mapping["n2"] {
			spares = append(spares, name)
		}
	}
	start := svc.Ledger().Now().Add(24 * time.Hour)
	for _, i := range leased {
		r, _ := host.NodeByName(spares[i])
		if _, err := svc.Ledger().AllocateWindow(core.Mapping{r}, start, start.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	setCPU(t, model, info.Mapping["n1"], 1)
	return m, info, spares
}

// TestRepairHonoursScheduledLeases: an open-ended embedding cannot move
// onto hosts another tenant has scheduled for later, because Replace
// checks the lease's whole window. With both spares scheduled, one pass
// proves the embedding Broken instead of committing a plan Replace
// refuses on every pass.
func TestRepairHonoursScheduledLeases(t *testing.T) {
	m, info, _ := scheduleSpares(t, 0, 1)
	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Broken || !strings.Contains(got.Detail, "no placement exists") || !strings.Contains(got.Detail, "under current tenancy") {
		t.Fatalf("both spares scheduled: %+v", got)
	}
	if s := m.Stats(); s.RepairFailures != 1 || s.Repaired != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestRepairMovesOntoTheUnscheduledSpare: with one spare scheduled for
// later, one pass migrates the broken node onto the other spare.
func TestRepairMovesOntoTheUnscheduledSpare(t *testing.T) {
	m, info, spares := scheduleSpares(t, 0)
	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Healthy || got.Repairs != 1 || got.Mapping["n1"] != spares[1] {
		t.Fatalf("one spare scheduled: %+v, want n1 on %s", got, spares[1])
	}
	if s := m.Stats(); s.RepairFailures != 0 || s.Repaired != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMaintainPacesRepairs pins the tick integration: Maintain re-sweeps
// on every model move but runs the repair pass at most once per
// RepairInterval.
func TestMaintainPacesRepairs(t *testing.T) {
	var svc *service.Service
	var model *service.Model
	var stolen []service.LeaseID
	cfg := Config{
		RepairInterval: 5 * time.Second,
		// Every commit conflicts, so the record stays Degraded and each
		// repair pass is observable as one more failure.
		BeforeCommit: func(id string) {
			for _, r := range []graph.NodeID{3, 4} {
				if lid, err := svc.Ledger().Allocate(core.Mapping{r}); err == nil {
					stolen = append(stolen, lid)
				}
			}
		},
	}
	model = service.NewModel(cpuClique(5, nil))
	svc = service.New(model, service.Config{})
	m := NewManager(svc, cfg)

	info := placeLine3(t, m, "rNode.cpu >= 5")
	setCPU(t, model, info.Mapping["n1"], 1)

	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	m.Maintain(t0, nil)
	if s := m.Stats(); s.RepairFailures != 1 {
		t.Fatalf("first tick: %+v", s)
	}
	// Free the stolen targets so the next pass conflicts at commit again
	// rather than proving infeasibility at plan time.
	for _, lid := range stolen {
		svc.Ledger().Release(lid)
	}
	stolen = nil
	m.Maintain(t0.Add(time.Second), nil)
	if s := m.Stats(); s.RepairFailures != 1 {
		t.Fatalf("paced tick ran a repair pass: %+v", s)
	}
	m.Maintain(t0.Add(6*time.Second), nil)
	if s := m.Stats(); s.RepairFailures != 2 {
		t.Fatalf("due tick did not repair: %+v", s)
	}
	got, _ := m.Get(info.ID)
	if got.Health != Degraded {
		t.Fatalf("record = %+v", got)
	}
}

// podHost builds the pinned adversarial 512-node substrate: a clique
// whose placement pockets are distinguished by pod attributes, so each
// embedding's eligible set is exact and every delta's blast radius is
// known.
func podHost() *graph.Graph {
	g := topo.Clique(512)
	set := func(id int, pod string) {
		g.Node(graph.NodeID(id)).Attrs = g.Node(graph.NodeID(id)).Attrs.SetNum(pod, 1)
	}
	for _, id := range []int{500, 501, 502} {
		set(id, "podA")
	}
	for _, id := range []int{490, 491, 492} {
		set(id, "podB")
	}
	for _, id := range []int{480, 481, 482} {
		set(id, "podC")
	}
	return g
}

// TestRepairAfterDeltaChain is the acceptance property test: a chain of
// deltas on a 512-node host breaks three embeddings; after the repair
// pass every repairable embedding is Healthy again, the seeded repair
// migrated strictly fewer nodes than a from-scratch re-embed would, and
// the unrepairable one is reported Broken — then reclassified and
// repaired when a later delta re-opens the case.
func TestRepairAfterDeltaChain(t *testing.T) {
	model, svc, m := newManager(t, podHost(), Config{})
	a := placeLine3(t, m, "rNode.podA > 0")
	b := placeLine3(t, m, "rNode.podB > 0")
	c := placeLine3(t, m, "rNode.podC > 0")

	// Delta chain: (1) pod A grows ten cheap nodes at the bottom of the ID
	// space and loses the host of a's middle node; (2) pod B loses one
	// node and gains two; (3) pod C just shrinks — two eligible hosts
	// cannot carry a 3-node line.
	podSet := func(pod string, ids ...int) []graph.NodeAttrUpdate {
		var ups []graph.NodeAttrUpdate
		for _, id := range ids {
			ups = append(ups, graph.NodeAttrUpdate{
				Node: "n" + itoa(id), Set: graph.Attrs{}.SetNum(pod, 1),
			})
		}
		return ups
	}
	if _, err := model.Apply(&graph.Delta{SetNodeAttrs: append(
		podSet("podA", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		graph.NodeAttrUpdate{Node: a.Mapping["n1"], Unset: []string{"podA"}},
	)}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Apply(&graph.Delta{SetNodeAttrs: append(
		podSet("podB", 20, 21),
		graph.NodeAttrUpdate{Node: b.Mapping["n1"], Unset: []string{"podB"}},
	)}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Apply(&graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{
		{Node: c.Mapping["n1"], Unset: []string{"podC"}},
	}}); err != nil {
		t.Fatal(err)
	}

	if unhealthy := m.CheckAll(); unhealthy != 3 {
		t.Fatalf("CheckAll = %d, want 3", unhealthy)
	}
	m.Maintain(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC), nil)

	// Every repairable embedding ends Healthy.
	gotA, _ := m.Get(a.ID)
	gotB, _ := m.Get(b.ID)
	gotC, _ := m.Get(c.ID)
	if gotA.Health != Healthy || gotB.Health != Healthy {
		t.Fatalf("repairable embeddings: a=%+v b=%+v", gotA, gotB)
	}
	if gotA.MigratedNodes != 1 || gotB.MigratedNodes != 1 {
		t.Fatalf("migrations a=%d b=%d, want 1 each (minimal)",
			gotA.MigratedNodes, gotB.MigratedNodes)
	}
	// The unrepairable one is reported Broken with the proof, not dropped.
	if gotC.Health != Broken || !strings.Contains(gotC.Detail, "no placement exists") {
		t.Fatalf("unrepairable embedding: %+v", gotC)
	}
	// Brokenness is pinned to its snapshot: a re-sweep on the same version
	// keeps the class.
	m.CheckAll()
	if gotC, _ = m.Get(c.ID); gotC.Health != Broken {
		t.Fatalf("Broken did not survive a same-version sweep: %+v", gotC)
	}

	// Seeded repair strictly beats a from-scratch re-embed on migrations:
	// scratch lands in pod A's new low-ID pocket, moving every node.
	resp, err := svc.Embed(service.Request{
		Query:          topo.Line(3),
		NodeConstraint: "rNode.podA > 0",
		MaxResults:     1,
		Timeout:        10 * time.Second,
	})
	if err != nil || len(resp.Named) == 0 {
		t.Fatalf("scratch embed: %v", err)
	}
	scratchMoved := 0
	for name, host := range resp.Named[0] {
		if a.Mapping[name] != host {
			scratchMoved++
		}
	}
	if scratchMoved <= gotA.MigratedNodes {
		t.Fatalf("scratch re-embed moved %d, seeded moved %d — want strictly fewer seeded",
			scratchMoved, gotA.MigratedNodes)
	}

	// A later delta re-opens the Broken case and the next pass repairs it.
	if _, err := model.Apply(&graph.Delta{SetNodeAttrs: podSet("podC", 30)}); err != nil {
		t.Fatal(err)
	}
	m.Maintain(time.Date(2026, 8, 1, 0, 1, 0, 0, time.UTC), nil)
	if gotC, _ = m.Get(c.ID); gotC.Health != Healthy || gotC.MigratedNodes != 1 {
		t.Fatalf("re-opened case not repaired: %+v", gotC)
	}
	if s := m.Stats(); s.Repaired != 3 || s.MigratedNodes != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestMigrateUsesConfiguredObjective pins the Config.Objective plumbing
// end to end: when a repair must move a node and several refuge hosts
// are feasible, the manager's configured objective picks the cheapest,
// not merely the first found.
func TestMigrateUsesConfiguredObjective(t *testing.T) {
	host := cpuClique(7, nil)
	for i := 0; i < host.NumNodes(); i++ {
		// Distinct prices so "cheapest refuge" is unambiguous.
		id := graph.NodeID(i)
		host.Node(id).Attrs = host.Node(id).Attrs.SetNum("price", float64(3+2*i))
	}
	model, _, m := newManager(t, host, Config{
		Objective: core.Objective{Kind: core.ObjectiveAttrCost, Attr: "price"},
	})
	info := placeLine3(t, m, "rNode.cpu >= 5")

	brokenName := info.Mapping["n1"]
	setCPU(t, model, brokenName, 1)

	// The cheapest host that is unused and still satisfies the
	// constraint is where the repaired node must land.
	snap, _ := model.Snapshot()
	used := map[string]bool{}
	for _, name := range info.Mapping {
		used[name] = true
	}
	wantName, wantPrice := "", 0.0
	for i := 0; i < snap.NumNodes(); i++ {
		n := snap.Node(graph.NodeID(i))
		cpu, _ := n.Attrs.Float("cpu")
		if used[n.Name] || cpu < 5 {
			continue
		}
		price, _ := n.Attrs.Float("price")
		if wantName == "" || price < wantPrice {
			wantName, wantPrice = n.Name, price
		}
	}
	if wantName == "" {
		t.Fatal("no refuge host available")
	}

	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Healthy || got.MigratedNodes != 1 {
		t.Fatalf("after migrate: %+v", got)
	}
	if got.Mapping["n1"] != wantName {
		t.Errorf("repair landed on %s, want cheapest refuge %s (price %v)",
			got.Mapping["n1"], wantName, wantPrice)
	}
}
