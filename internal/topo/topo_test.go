package topo

import (
	"math/rand"
	"testing"

	"netembed/internal/graph"
)

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.NumNodes() != 5 || g.NumEdges() != 5 {
		t.Fatalf("ring(5) = %v", g)
	}
	for i := 0; i < 5; i++ {
		if g.Degree(graph.NodeID(i)) != 2 {
			t.Errorf("ring degree(%d) = %d", i, g.Degree(graph.NodeID(i)))
		}
	}
	if !g.IsConnected() {
		t.Error("ring disconnected")
	}
	// Degenerate sizes.
	if g := Ring(2); g.NumEdges() != 1 {
		t.Errorf("ring(2) edges = %d, want 1", g.NumEdges())
	}
	if g := Ring(1); g.NumEdges() != 0 {
		t.Errorf("ring(1) edges = %d", g.NumEdges())
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.NumNodes() != 6 || g.NumEdges() != 5 {
		t.Fatalf("star(6) = %v", g)
	}
	if g.Degree(0) != 5 {
		t.Errorf("hub degree = %d", g.Degree(0))
	}
	for i := 1; i < 6; i++ {
		if g.Degree(graph.NodeID(i)) != 1 {
			t.Errorf("leaf degree(%d) = %d", i, g.Degree(graph.NodeID(i)))
		}
	}
}

func TestClique(t *testing.T) {
	g := Clique(6)
	if g.NumEdges() != 15 {
		t.Fatalf("clique(6) edges = %d", g.NumEdges())
	}
	if g.Density() != 1 {
		t.Errorf("clique density = %v", g.Density())
	}
}

func TestLineAndTreeAndGrid(t *testing.T) {
	if g := Line(4); g.NumEdges() != 3 || g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("line(4) wrong: %v", g)
	}
	tr := Tree(2, 3) // 1+2+4+8 = 15 nodes, 14 edges
	if tr.NumNodes() != 15 || tr.NumEdges() != 14 {
		t.Errorf("tree(2,3) = %v", tr)
	}
	if !tr.IsConnected() {
		t.Error("tree disconnected")
	}
	gr := Grid(3, 4)
	if gr.NumNodes() != 12 || gr.NumEdges() != 3*3+2*4 {
		t.Errorf("grid(3,4) = %v", gr)
	}
	if !gr.IsConnected() {
		t.Error("grid disconnected")
	}
}

func TestRegularDispatch(t *testing.T) {
	for _, k := range []Kind{KindRing, KindStar, KindClique, KindLine} {
		g, err := Regular(k, 4)
		if err != nil || g.NumNodes() != 4 {
			t.Errorf("Regular(%s): %v %v", k, g, err)
		}
	}
	if _, err := Regular("moebius", 4); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestComposite(t *testing.T) {
	// Ring of 3 clusters, each a star of 4 nodes.
	g, err := Composite(KindRing, 3, KindStar, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("composite nodes = %d", g.NumNodes())
	}
	// Edges: 3 clusters × 3 star edges + 3 ring edges.
	if g.NumEdges() != 12 {
		t.Fatalf("composite edges = %d", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("composite disconnected")
	}
	root, leaf := 0, 0
	for i := 0; i < g.NumEdges(); i++ {
		switch lv, _ := g.Edge(graph.EdgeID(i)).Attrs.Text(LevelAttr); lv {
		case "root":
			root++
		case "leaf":
			leaf++
		default:
			t.Fatalf("edge %d has no level attr", i)
		}
	}
	if root != 3 || leaf != 9 {
		t.Errorf("root=%d leaf=%d", root, leaf)
	}
	if _, err := Composite("bogus", 3, KindStar, 4); err == nil {
		t.Error("bad root kind accepted")
	}
	if _, err := Composite(KindRing, 3, "bogus", 4); err == nil {
		t.Error("bad leaf kind accepted")
	}
}

func TestBriteBA(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := Brite(BriteConfig{N: 1500, TargetEdges: 3030}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1500 || g.NumEdges() != 3030 {
		t.Fatalf("brite = %v, want 1500/3030", g)
	}
	if !g.IsConnected() {
		t.Error("BA graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Preferential attachment yields a heavy tail: max degree well above
	// the mean (which is ~4).
	maxDeg := 0
	for i := 0; i < g.NumNodes(); i++ {
		if d := g.Degree(graph.NodeID(i)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 15 {
		t.Errorf("max degree = %d, expected heavy tail", maxDeg)
	}
	// Attributes present and ordered.
	for i := 0; i < g.NumEdges(); i++ {
		a := g.Edge(graph.EdgeID(i)).Attrs
		min, ok1 := a.Float("minDelay")
		avg, ok2 := a.Float("avgDelay")
		max, ok3 := a.Float("maxDelay")
		if !ok1 || !ok2 || !ok3 || min > avg || avg > max || min <= 0 {
			t.Fatalf("edge %d delays bad: %v %v %v", i, min, avg, max)
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		a := g.Node(graph.NodeID(i)).Attrs
		if !a.Has("x") || !a.Has("y") || !a.Has("cpu") || !a.Has("osType") {
			t.Fatalf("node %d attrs incomplete: %v", i, a)
		}
	}
}

func TestBriteWaxman(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := Brite(BriteConfig{N: 300, Model: Waxman}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 300 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Error("waxman graph must be patched to connectivity")
	}
}

func TestBriteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Brite(BriteConfig{N: 1}, rng); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Brite(BriteConfig{N: 10, TargetEdges: 5}, rng); err == nil {
		t.Error("too few edges accepted")
	}
	if _, err := Brite(BriteConfig{N: 10, TargetEdges: 100}, rng); err == nil {
		t.Error("too many edges accepted")
	}
	if _, err := Brite(BriteConfig{N: 10, Model: Model(99)}, rng); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestTransitStub(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := TransitStub(4, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 4 transit + 4*2 gateways + 4*2*2 leaves = 28 nodes.
	if g.NumNodes() != 28 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Error("transit-stub disconnected")
	}
	if _, err := TransitStub(2, 1, 1, rng); err == nil {
		t.Error("tiny transit ring accepted")
	}
}

func TestSubgraphPlantedAndConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	host, err := Brite(BriteConfig{N: 200, TargetEdges: 404}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		e := n - 1 + rng.Intn(n)
		q, plant, err := Subgraph(host, n, e, rng)
		if err != nil {
			t.Fatal(err)
		}
		if q.NumNodes() != n {
			t.Fatalf("trial %d: nodes = %d, want %d", trial, q.NumNodes(), n)
		}
		if q.NumEdges() < n-1 {
			t.Fatalf("trial %d: %d edges < spanning tree", trial, q.NumEdges())
		}
		if q.NumEdges() > e {
			t.Fatalf("trial %d: %d edges > requested %d", trial, q.NumEdges(), e)
		}
		if !q.IsConnected() {
			t.Fatalf("trial %d: query disconnected", trial)
		}
		if len(plant) != n {
			t.Fatalf("trial %d: plant size %d", trial, len(plant))
		}
		// The planted mapping must be injective and edge-preserving.
		seen := map[graph.NodeID]bool{}
		for _, h := range plant {
			if seen[h] {
				t.Fatalf("trial %d: plant not injective", trial)
			}
			seen[h] = true
		}
		for i := 0; i < q.NumEdges(); i++ {
			qe := q.Edge(graph.EdgeID(i))
			if !host.HasEdge(plant[qe.From], plant[qe.To]) {
				t.Fatalf("trial %d: query edge %d not present in host", trial, i)
			}
		}
	}
}

func TestSubgraphErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	host := Ring(10)
	if _, _, err := Subgraph(host, 11, 10, rng); err == nil {
		t.Error("oversized sample accepted")
	}
	if _, _, err := Subgraph(host, 0, 0, rng); err == nil {
		t.Error("zero sample accepted")
	}
	// Disconnected host: component too small.
	disc := graph.NewUndirected()
	disc.AddNodes(4)
	disc.MustAddEdge(0, 1, nil)
	disc.MustAddEdge(2, 3, nil)
	fails := 0
	for i := 0; i < 20; i++ {
		if _, _, err := Subgraph(disc, 3, 2, rng); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Error("sampling 3 nodes from components of size 2 never failed")
	}
}

func TestWidenDelayWindows(t *testing.T) {
	g := Line(3)
	g.Edge(0).Attrs = graph.Attrs{}.SetNum(AttrMinDelay, 100).SetNum(AttrMaxDelay, 200)
	g.Edge(1).Attrs = graph.Attrs{}.SetNum(AttrAvgDelay, 50) // no window: untouched
	WidenDelayWindows(g, 0.1)
	if lo, _ := g.Edge(0).Attrs.Float(AttrMinDelay); lo != 90 {
		t.Errorf("min = %v, want 90", lo)
	}
	if hi, _ := g.Edge(0).Attrs.Float(AttrMaxDelay); hi != 220.00000000000003 && hi != 220 {
		t.Errorf("max = %v, want 220", hi)
	}
	if g.Edge(1).Attrs.Has(AttrMinDelay) {
		t.Error("windowless edge gained a window")
	}
}

func TestSetDelayWindow(t *testing.T) {
	g := Clique(4)
	SetDelayWindow(g, 10, 100)
	for i := 0; i < g.NumEdges(); i++ {
		lo, _ := g.Edge(graph.EdgeID(i)).Attrs.Float(AttrMinDelay)
		hi, _ := g.Edge(graph.EdgeID(i)).Attrs.Float(AttrMaxDelay)
		if lo != 10 || hi != 100 {
			t.Fatalf("edge %d window = [%v,%v]", i, lo, hi)
		}
	}
}

func TestMakeInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Clique(5)
	SetDelayWindow(g, 10, 100)
	MakeInfeasible(g, 3, rng)
	negative := 0
	for i := 0; i < g.NumEdges(); i++ {
		if hi, _ := g.Edge(graph.EdgeID(i)).Attrs.Float(AttrMaxDelay); hi < 0 {
			negative++
		}
	}
	if negative != 3 {
		t.Errorf("infeasible edges = %d, want 3", negative)
	}
	// k larger than edge count clamps.
	MakeInfeasible(g, 100, rng)
	for i := 0; i < g.NumEdges(); i++ {
		if hi, _ := g.Edge(graph.EdgeID(i)).Attrs.Float(AttrMaxDelay); hi > 0 {
			t.Fatal("clamped MakeInfeasible left a feasible edge")
		}
	}
	// Edgeless graph: no-op.
	MakeInfeasible(graph.NewUndirected(), 1, rng)
}

func BenchmarkBrite1500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := Brite(BriteConfig{N: 1500, TargetEdges: 3030}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubgraph100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	host, err := Brite(BriteConfig{N: 1500, TargetEdges: 3030}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Subgraph(host, 100, 150, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	q, host := Pigeonhole(5)
	if q.NumNodes() != 6 || q.NumEdges() != 15 {
		t.Errorf("query: %d nodes %d edges, want K_6", q.NumNodes(), q.NumEdges())
	}
	if host.NumNodes() != 10 || host.NumEdges() != 10+5 {
		t.Errorf("host: %d nodes %d edges, want K_5 plus 5 pendants", host.NumNodes(), host.NumEdges())
	}
	for i := 0; i < 10; i++ {
		want := 5 // clique node: 4 clique edges + its pendant
		if i >= 5 {
			want = 1
		}
		if got := host.Degree(graph.NodeID(i)); got != want {
			t.Errorf("host node %d has degree %d, want %d", i, got, want)
		}
	}
}
