package lifecycle

import (
	"strings"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/service"
)

// diamondHost is h0-h1-h2 plus the alternate route h0-h3-h2, every hop
// 10ms: the minimal substrate where one witness edge can vanish while a
// second 2-hop route keeps the same endpoints connected.
func diamondHost() *graph.Graph {
	g := graph.NewUndirected()
	for _, name := range []string{"h0", "h1", "h2", "h3"} {
		g.AddNode(name, nil)
	}
	hop := func(u, v graph.NodeID) {
		g.MustAddEdge(u, v, graph.Attrs{}.SetNum("avgDelay", 10))
	}
	hop(0, 1)
	hop(1, 2)
	hop(0, 3)
	hop(3, 2)
	return g
}

// windowQuery is a single query edge a-b demanding 15..25ms: no single
// 10ms hop qualifies, any 2-hop route (20ms) does.
func windowQuery() *graph.Graph {
	q := graph.NewUndirected()
	q.AddNode("a", nil)
	q.AddNode("b", nil)
	q.MustAddEdge(0, 1, graph.Attrs{}.SetNum("minDelay", 15).SetNum("maxDelay", 25))
	return q
}

func placePath(t testing.TB, m *Manager) Info {
	t.Helper()
	info, err := m.Place(PlaceRequest{Request: service.Request{
		Query:     windowQuery(),
		Algorithm: service.AlgoPathEmbed,
		Path:      service.PathRequestOptions{MaxHops: 2},
		Timeout:   10 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Witnesses) != 1 {
		t.Fatalf("placed with %d witnesses", len(info.Witnesses))
	}
	return info
}

// TestPathRerouteWithoutMigration pins the repair's zero-migration tier:
// when a witness hop vanishes but the mapped endpoints stay connected
// within the hop bound, the repair re-routes the witness and moves
// nothing.
func TestPathRerouteWithoutMigration(t *testing.T) {
	model := service.NewModel(diamondHost())
	svc := service.New(model, service.Config{})
	m := NewManager(svc, Config{})
	info := placePath(t, m)

	// Cut the first hop of whichever witness the placement rode.
	w := info.Witnesses[0]
	if _, err := model.Apply(&graph.Delta{RemoveEdges: []graph.EdgeRef{
		{Source: w.Path[0], Target: w.Path[1]},
	}}); err != nil {
		t.Fatal(err)
	}
	m.CheckAll()
	got, _ := m.Get(info.ID)
	if got.Health != Degraded {
		t.Fatalf("after cut: %+v", got)
	}
	// The reachability oracle already knows no migration is needed.
	if !strings.Contains(got.Detail, "re-routable without migration") {
		t.Fatalf("oracle verdict missing: %q", got.Detail)
	}

	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Healthy || got.MigratedNodes != 0 || got.Repairs != 1 {
		t.Fatalf("reroute: %+v", got)
	}
	if got.Mapping["a"] != info.Mapping["a"] || got.Mapping["b"] != info.Mapping["b"] {
		t.Fatalf("zero-migration repair moved nodes: %v -> %v", info.Mapping, got.Mapping)
	}
	nw := got.Witnesses[0]
	if len(nw.Path) != 3 || nw.Path[1] == w.Path[1] {
		t.Fatalf("witness not re-routed: %v -> %v", w.Path, nw.Path)
	}
	if nw.Cost != 20 {
		t.Errorf("re-routed witness cost %v", nw.Cost)
	}
}

// TestPathRepairMigrates pins the fallback tier: when a delta isolates a
// mapped endpoint, re-routing is impossible and the repair re-embeds
// within the migration budget.
func TestPathRepairMigrates(t *testing.T) {
	model := service.NewModel(diamondHost())
	svc := service.New(model, service.Config{})
	m := NewManager(svc, Config{})
	info := placePath(t, m)

	// Sever every edge at the witness's first node: one endpoint is now
	// isolated, so some node must move.
	first := info.Witnesses[0].Path[0]
	host, _ := model.Snapshot()
	fid, _ := host.NodeByName(first)
	var cuts []graph.EdgeRef
	for _, arc := range host.Arcs(fid) {
		cuts = append(cuts, graph.EdgeRef{Source: first, Target: host.Node(arc.To).Name})
	}
	if _, err := model.Apply(&graph.Delta{RemoveEdges: cuts}); err != nil {
		t.Fatal(err)
	}

	m.CheckAll()
	got, _ := m.Get(info.ID)
	if got.Health != Degraded || !strings.Contains(got.Detail, "repair must migrate") {
		t.Fatalf("after isolation: %+v", got)
	}
	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Healthy || got.Repairs != 1 {
		t.Fatalf("migrating path repair: %+v", got)
	}
	if got.MigratedNodes == 0 {
		t.Fatal("isolated endpoint repaired without moving anything")
	}
	for _, name := range got.Witnesses[0].Path {
		if name == first {
			t.Fatalf("repaired witness still crosses the isolated node: %v", got.Witnesses[0].Path)
		}
	}
}

// TestPathRepairBroken pins the proof path for path mode: when no
// placement with valid witnesses exists at all, the record is reported
// Broken.
func TestPathRepairBroken(t *testing.T) {
	model := service.NewModel(diamondHost())
	svc := service.New(model, service.Config{})
	m := NewManager(svc, Config{})
	info := placePath(t, m)

	// Cut the substrate down to a single edge: no 2-hop route remains
	// anywhere, so the 15..25ms window is unsatisfiable.
	if _, err := model.Apply(&graph.Delta{RemoveEdges: []graph.EdgeRef{
		{Source: "h0", Target: "h1"},
		{Source: "h0", Target: "h3"},
		{Source: "h3", Target: "h2"},
	}}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Migrate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != Broken || !strings.Contains(got.Detail, "no path embedding exists") {
		t.Fatalf("unsatisfiable path repair: %+v", got)
	}
	if s := m.Stats(); s.Broken != 1 || s.RepairFailures != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
