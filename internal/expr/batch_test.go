package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// graphColumns serves a graph's columns uncached — the simplest Columns.
type graphColumns struct{ g *graph.Graph }

func (c graphColumns) EdgeColumn(attr string) *graph.Column { return c.g.EdgeColumn(attr, nil) }
func (c graphColumns) NodeColumn(attr string) *graph.Column { return c.g.NodeColumn(attr, nil) }

var batchAttrs = []string{"a", "b", "c", "s"}

// randomValue draws from every kind and every awkward number.
func randomValue(rng *rand.Rand) (graph.Value, bool) {
	switch rng.Intn(12) {
	case 0, 1:
		return graph.Value{}, false // attribute absent
	case 2:
		return graph.Value{}, true // attribute present but Missing
	case 3:
		return graph.Str([]string{"", "x", "y", "linux"}[rng.Intn(4)]), true
	case 4:
		return graph.BoolVal(rng.Intn(2) == 0), true
	case 5:
		return graph.Num([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(5)]), true
	default:
		return graph.Num(float64(rng.Intn(7) - 3)), true
	}
}

func randomBag(rng *rand.Rand) graph.Attrs {
	var bag graph.Attrs
	for _, attr := range batchAttrs {
		if v, ok := randomValue(rng); ok {
			bag = bag.Set(attr, v)
		}
	}
	return bag
}

// randomHost builds a complete undirected graph on n nodes with random
// bags everywhere; mixed kinds inside one column are the norm.
func randomHost(rng *rand.Rand, n int) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode("", randomBag(rng))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), randomBag(rng))
		}
	}
	return g
}

// randomExpr generates source text from the full grammar over the given
// objects. Depth-limited; every operator, function and literal kind can
// appear at every position, well-typed or not.
func randomExpr(rng *rand.Rand, objs []string, depth int) string {
	sub := func() string { return randomExpr(rng, objs, depth-1) }
	if depth <= 0 || rng.Intn(5) == 0 {
		switch rng.Intn(7) {
		case 0:
			return fmt.Sprint(rng.Intn(5) - 1)
		case 1:
			return []string{"true", "false", "'x'", `"linux"`, "0.5"}[rng.Intn(5)]
		default:
			return objs[rng.Intn(len(objs))] + "." + batchAttrs[rng.Intn(len(batchAttrs))]
		}
	}
	switch rng.Intn(14) {
	case 0:
		return "(" + sub() + " && " + sub() + ")"
	case 1:
		return "(" + sub() + " || " + sub() + ")"
	case 2:
		return "!(" + sub() + ")"
	case 3:
		return "-(" + sub() + ")"
	case 4, 5:
		op := []string{"<", ">", "<=", ">="}[rng.Intn(4)]
		return "(" + sub() + " " + op + " " + sub() + ")"
	case 6:
		op := []string{"==", "!="}[rng.Intn(2)]
		return "(" + sub() + " " + op + " " + sub() + ")"
	case 7, 8:
		op := []string{"+", "-", "*", "/"}[rng.Intn(4)]
		return "(" + sub() + " " + op + " " + sub() + ")"
	case 9:
		fn := []string{"abs", "sqrt", "floor", "ceil"}[rng.Intn(4)]
		return fn + "(" + sub() + ")"
	case 10:
		args := []string{sub(), sub()}
		for rng.Intn(3) == 0 {
			args = append(args, sub())
		}
		return []string{"min", "max"}[rng.Intn(2)] + "(" + strings.Join(args, ", ") + ")"
	case 11:
		return "isBoundTo(" + sub() + ", " + sub() + ")"
	case 12:
		return "has(" + sub() + ")"
	default:
		return sub()
	}
}

var (
	edgeObjs = []string{"vEdge", "rEdge", "vSource", "vTarget", "rSource", "rTarget"}
	nodeObjs = []string{"vNode", "rNode"}
)

// checkEdgeBatch pins bit i of the batch mask to EvalEdge on host edge i,
// in both orientations of the (undirected) host edges.
func checkEdgeBatch(t *testing.T, p *Program, host *graph.Graph, vEdge, vSource, vTarget graph.Attrs, s *Scratch) {
	t.Helper()
	from, to := host.Endpoints(nil, nil)
	mask := sets.NewBitset(host.NumEdges())
	for _, swapped := range []bool{false, true} {
		rs, rt := from, to
		if swapped {
			rs, rt = to, from
		}
		p.EvalEdgeBatch(&EdgeBatch{
			VEdge: vEdge, VSource: vSource, VTarget: vTarget,
			Host: graphColumns{host}, RSource: rs, RTarget: rt,
		}, s, mask)
		for i := 0; i < host.NumEdges(); i++ {
			want := p.EvalEdge(&EdgeBinding{
				VEdge: vEdge, VSource: vSource, VTarget: vTarget,
				REdge:   host.Edge(graph.EdgeID(i)).Attrs,
				RSource: host.Node(rs[i]).Attrs,
				RTarget: host.Node(rt[i]).Attrs,
			})
			if got := mask.Has(int32(i)); got != want {
				t.Fatalf("%q: host edge %d (swapped=%v): batch %v, EvalEdge %v\nvEdge=%v vSource=%v vTarget=%v\nrEdge=%v rSource=%v rTarget=%v",
					p, i, swapped, got, want, vEdge, vSource, vTarget,
					host.Edge(graph.EdgeID(i)).Attrs, host.Node(rs[i]).Attrs, host.Node(rt[i]).Attrs)
			}
		}
	}
}

// checkNodeBatch pins bit i of the batch mask to EvalNode on host node i.
func checkNodeBatch(t *testing.T, p *Program, host *graph.Graph, vNode graph.Attrs, s *Scratch) {
	t.Helper()
	mask := sets.NewBitset(host.NumNodes())
	p.EvalNodeBatch(&NodeBatch{VNode: vNode, Host: graphColumns{host}}, s, mask)
	for i := 0; i < host.NumNodes(); i++ {
		want := p.EvalNode(&NodeBinding{VNode: vNode, RNode: host.Node(graph.NodeID(i)).Attrs})
		if got := mask.Has(int32(i)); got != want {
			t.Fatalf("%q: host node %d: batch %v, EvalNode %v\nvNode=%v rNode=%v",
				p, i, got, want, vNode, host.Node(graph.NodeID(i)).Attrs)
		}
	}
}

// checkBatch runs p in every context it is valid in against a host drawn
// from seed.
func checkBatch(t *testing.T, p *Program, seed int64, hostNodes int, s *Scratch) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := randomHost(rng, hostNodes)
	if p.CheckEdgeContext() == nil {
		checkEdgeBatch(t, p, host, randomBag(rng), randomBag(rng), randomBag(rng), s)
	}
	if p.CheckNodeContext() == nil {
		checkNodeBatch(t, p, host, randomBag(rng), s)
	}
}

// TestBatchEqualsScalar: random programs from the full grammar against
// random attribute bags — the batch evaluator and the per-pair evaluator
// must agree on every element.
func TestBatchEqualsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s Scratch // one scratch across all programs, as BuildFilters reuses it
	for i := 0; i < 1500; i++ {
		objs := edgeObjs
		if i%3 == 0 {
			objs = nodeObjs
		}
		src := randomExpr(rng, objs, 1+rng.Intn(4))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("generator produced invalid source %q: %v", src, err)
		}
		checkBatch(t, p, int64(i), 4+rng.Intn(8), &s)
	}
}

// TestBatchChunkBoundaries: universes around the chunk and word sizes,
// including a node universe wider than one chunk and an edge universe
// ending mid-word in its second chunk.
func TestBatchChunkBoundaries(t *testing.T) {
	edge := MustCompile("rEdge.a >= vEdge.a && rSource.b <= rTarget.b || isBoundTo(vSource.s, rTarget.s)")
	node := MustCompile("rNode.a >= vNode.a || has(rNode.s) && rNode.s != 'x'")
	var s Scratch
	for _, n := range []int{0, 1, 2, 12, 46, 47} { // 47 nodes: 1081 edges
		checkBatch(t, edge, int64(n), n, &s)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{63, 64, 65, batchChunk - 1, batchChunk, batchChunk + 1, 2*batchChunk + 70} {
		host := graph.NewUndirected()
		for i := 0; i < n; i++ {
			host.AddNode("", randomBag(rng))
		}
		checkNodeBatch(t, node, host, randomBag(rng), &s)
	}
}

// TestBatchCornerCases names the cases the issue lists, so a generator
// change cannot silently stop covering them.
func TestBatchCornerCases(t *testing.T) {
	var s Scratch
	for i, src := range []string{
		"",
		"true",
		"1/0 > 3 || rEdge.a/0 > 3",
		"sqrt(-1) < 1 || sqrt(rEdge.a) >= 0",
		"rEdge.a/rEdge.b == rEdge.a/rEdge.b",
		"isBoundTo(vEdge.nope, rEdge.s)",
		"isBoundTo(vSource.s, rSource.s) && isBoundTo(vTarget.s, rTarget.s)",
		"!has(rEdge.a) || rEdge.a != rEdge.a",
		"min(rEdge.a, rEdge.b, rEdge.c) <= max(vEdge.a, 0, rEdge.a)",
		"(rEdge.a < rEdge.b) == (rEdge.b > rEdge.a)",
		"rEdge.s < 'm' || rEdge.s >= vEdge.s",
		"-rEdge.a + rEdge.b * 2 - rEdge.c / 2 < abs(floor(rEdge.a) - ceil(rEdge.b))",
		"vEdge.a < vEdge.b",
		// Hosting attributes nothing defines: no column, missing everywhere.
		"has(rEdge.nope) || rEdge.nope + rEdge.a < 1 || isBoundTo(vEdge.nope, rSource.nope) && !has(rTarget.nope)",
		"!has(rNode.nope) && rNode.nope != 1 || isBoundTo(vNode.a, rNode.nope) || rNode.nope == rNode.nope",
	} {
		checkBatch(t, MustCompile(src), int64(100+i), 9, &s)
	}
}

// TestCompileBoundsBatchRegisters: right-nesting is the only thing that
// grows a Scratch, and Compile caps it; chains, parentheses and unary
// operators nest freely.
func TestCompileBoundsBatchRegisters(t *testing.T) {
	rightNested := func(ops int) string {
		return strings.Repeat("rEdge.a + (", ops) + "1" + strings.Repeat(")", ops) + " > 0"
	}
	var s Scratch
	for _, src := range []string{
		rightNested(maxRegs - 1), // each level holds one register above the innermost's
		strings.Repeat("rEdge.a + ", 500) + "1 > 0",
		strings.Repeat("!(", 200) + "has(rEdge.a)" + strings.Repeat(")", 200),
	} {
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile rejected a program within the limit: %v", err)
		}
		checkBatch(t, p, 1, 6, &s)
	}
	if len(s.regs) != maxRegs {
		t.Fatalf("scratch holds %d registers after the deepest legal program, want %d", len(s.regs), maxRegs)
	}
	if _, err := Compile(rightNested(maxRegs)); err == nil {
		t.Fatal("Compile accepted operands nested beyond the register limit")
	}
}

// FuzzBatchEqualsScalar lets the fuzzer mutate both the program text and
// the seed its attribute bags are drawn from. The corpus seeds every
// operator; `go test -fuzz=FuzzBatchEqualsScalar ./internal/expr` explores.
func FuzzBatchEqualsScalar(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		f.Add(randomExpr(rng, edgeObjs, 3), int64(i))
		f.Add(randomExpr(rng, nodeObjs, 3), int64(i))
	}
	f.Add("rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay", int64(7))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		var s Scratch
		checkBatch(t, p, seed, 6, &s)
	})
}

// TestEvalDoesNotAllocate pins the per-pair evaluator allocation-free: the
// single-pair callers (Verify, LNS, repair, the coordinator's cut-edge
// screens) run it in loops.
func TestEvalDoesNotAllocate(t *testing.T) {
	edge := MustCompile("rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay && isBoundTo(vSource.os, rSource.os)")
	eb := EdgeBinding{
		VEdge:   graph.Attrs{}.SetNum("minDelay", 1).SetNum("maxDelay", 9),
		REdge:   graph.Attrs{}.SetNum("avgDelay", 5),
		RSource: graph.Attrs{}.SetStr("os", "linux"),
	}
	node := MustCompile("rNode.cpu >= vNode.cpu && !has(rNode.reserved)")
	nb := NodeBinding{VNode: graph.Attrs{}.SetNum("cpu", 2), RNode: graph.Attrs{}.SetNum("cpu", 4)}
	konst := MustCompile("min(1, 2) < sqrt(9)")
	if n := testing.AllocsPerRun(100, func() {
		// Bindings built per call, the way Problem.edgeOK builds them.
		b := eb
		if !edge.EvalEdge(&b) {
			t.Fatal("edge rejected")
		}
		nn := nb
		if !node.EvalNode(&nn) {
			t.Fatal("node rejected")
		}
		if !konst.EvalConst() {
			t.Fatal("const rejected")
		}
	}); n != 0 {
		t.Fatalf("per-pair evaluation allocates %v times per run, want 0", n)
	}
}

// TestBatchSteadyStateDoesNotAllocate: with a warm Scratch and cached
// columns a batch evaluation allocates nothing.
func TestBatchSteadyStateDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	host := randomHost(rng, 20)
	cols := cachedColumns{edge: map[string]*graph.Column{}, node: map[string]*graph.Column{}, g: host}
	p := MustCompile("rEdge.a >= vEdge.a && rSource.b <= rTarget.b")
	from, to := host.Endpoints(nil, nil)
	b := &EdgeBatch{VEdge: randomBag(rng), Host: cols, RSource: from, RTarget: to}
	mask := sets.NewBitset(host.NumEdges())
	var s Scratch
	p.EvalEdgeBatch(b, &s, mask)
	if n := testing.AllocsPerRun(50, func() { p.EvalEdgeBatch(b, &s, mask) }); n != 0 {
		t.Fatalf("warm batch evaluation allocates %v times per run, want 0", n)
	}
}

type cachedColumns struct {
	g          *graph.Graph
	edge, node map[string]*graph.Column
}

func (c cachedColumns) EdgeColumn(attr string) *graph.Column {
	if c.edge[attr] == nil {
		c.edge[attr] = c.g.EdgeColumn(attr, nil)
	}
	return c.edge[attr]
}

func (c cachedColumns) NodeColumn(attr string) *graph.Column {
	if c.node[attr] == nil {
		c.node[attr] = c.g.NodeColumn(attr, nil)
	}
	return c.node[attr]
}

func BenchmarkEvalEdgeBatchDelayWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	host := graph.NewUndirected()
	host.AddNodes(242) // 29,161 edges, the paper-sized host's count
	for u := 0; u < 242; u++ {
		for v := u + 1; v < 242; v++ {
			host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("avgDelay", rng.Float64()*100))
		}
	}
	cols := cachedColumns{edge: map[string]*graph.Column{}, node: map[string]*graph.Column{}, g: host}
	p := MustCompile("rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
	batch := &EdgeBatch{VEdge: graph.Attrs{}.SetNum("minDelay", 20).SetNum("maxDelay", 60), Host: cols}
	mask := sets.NewBitset(host.NumEdges())
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EvalEdgeBatch(batch, &s, mask)
	}
}
