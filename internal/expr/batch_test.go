package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// graphColumns serves a graph's columns uncached — the simplest Columns.
type graphColumns struct{ g *graph.Graph }

func (c graphColumns) EdgeColumn(attr string) *graph.Column { return c.g.EdgeColumn(attr, nil) }
func (c graphColumns) NodeColumn(attr string) *graph.Column { return c.g.NodeColumn(attr, nil) }

var batchAttrs = []string{"a", "b", "c", "s"}

// ArmedColumns returns index.Columns over g with the range index of each
// of attrs' columns built (set by armed_columns_test.go).
var ArmedColumns func(g *graph.Graph, attrs []string) Columns

// hostColumns lists the two hosting sides every batch check runs through:
// plain columns, and index.Columns with every range index armed.
func hostColumns(g *graph.Graph) []Columns {
	return []Columns{graphColumns{g}, ArmedColumns(g, batchAttrs)}
}

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

// randomBag draws every attribute from randomValue. With numeric, a, b
// and c draw again until they hold no string, so their columns carry no
// string payload and get range indexes; s still mixes every kind.
func randomBag(rng *rand.Rand, numeric bool) graph.Attrs {
	var bag graph.Attrs
	for _, attr := range batchAttrs {
		v, ok := randomValue(rng)
		for numeric && attr != "s" && v.Kind() == graph.String {
			v, ok = randomValue(rng)
		}
		if ok {
			bag = bag.Set(attr, v)
		}
	}
	return bag
}

// randomHost builds a complete undirected graph on n nodes with random
// bags everywhere (numeric as in randomBag); mixed kinds inside one
// column are the norm.
func randomHost(rng *rand.Rand, n int, numeric bool) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode("", randomBag(rng, numeric))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), randomBag(rng, numeric))
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

// randomRangeExpr generates the shape range indexes answer: &&, || and !
// over comparisons of a hosting column (host is rEdge or rNode) with an
// operand reading only the query objects, in either operand order. The
// operands include constants that are not numbers (strings, booleans,
// missing) and columns with strings (s), which must fall back.
func randomRangeExpr(rng *rand.Rand, host string, query []string, depth int) string {
	sub := func() string { return randomRangeExpr(rng, host, query, depth-1) }
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return "(" + sub() + " && " + sub() + ")"
		case 1:
			return "(" + sub() + " || " + sub() + ")"
		default:
			return "!(" + sub() + ")"
		}
	}
	attr := func() string { return batchAttrs[rng.Intn(len(batchAttrs))] }
	col := host + "." + attr()
	var operand string
	switch rng.Intn(4) {
	case 0:
		operand = fmt.Sprint(rng.Intn(7) - 3)
	case 1:
		operand = []string{"-0", "0.5", "1/0", "'x'", "true"}[rng.Intn(5)]
	case 2:
		operand = "(" + query[rng.Intn(len(query))] + "." + attr() + " * 2 - 1)"
	default:
		operand = query[rng.Intn(len(query))] + "." + attr()
	}
	op := []string{"<", ">", "<=", ">=", "==", "!="}[rng.Intn(6)]
	if rng.Intn(2) == 0 {
		return "(" + col + " " + op + " " + operand + ")"
	}
	return "(" + operand + " " + op + " " + col + ")"
}

var (
	edgeQueryObjs = []string{"vEdge", "vSource", "vTarget"}
	nodeQueryObjs = []string{"vNode"}
)

// checkEdgeBatch pins bit i of the batch mask to EvalEdge on host edge i,
// in both orientations of the (undirected) host edges, through plain and
// range-indexed columns.
func checkEdgeBatch(t *testing.T, p *Program, host *graph.Graph, vEdge, vSource, vTarget graph.Attrs, s *Scratch) {
	t.Helper()
	from, to := host.Endpoints(nil, nil)
	mask := sets.NewBitset(host.NumEdges())
	for c, cols := range hostColumns(host) {
		for _, swapped := range []bool{false, true} {
			rs, rt := from, to
			if swapped {
				rs, rt = to, from
			}
			p.EvalEdgeBatch(&EdgeBatch{
				VEdge: vEdge, VSource: vSource, VTarget: vTarget,
				Host: cols, RSource: rs, RTarget: rt,
			}, s, mask)
			for i := 0; i < host.NumEdges(); i++ {
				want := p.EvalEdge(&EdgeBinding{
					VEdge: vEdge, VSource: vSource, VTarget: vTarget,
					REdge:   host.Edge(graph.EdgeID(i)).Attrs,
					RSource: host.Node(rs[i]).Attrs,
					RTarget: host.Node(rt[i]).Attrs,
				})
				if got := mask.Has(int32(i)); got != want {
					t.Fatalf("%q: host edge %d (swapped=%v, armed=%v): batch %v, EvalEdge %v\nvEdge=%v vSource=%v vTarget=%v\nrEdge=%v rSource=%v rTarget=%v",
						p, i, swapped, c == 1, got, want, vEdge, vSource, vTarget,
						host.Edge(graph.EdgeID(i)).Attrs, host.Node(rs[i]).Attrs, host.Node(rt[i]).Attrs)
				}
			}
		}
	}
}

// checkNodeBatch pins bit i of the batch mask to EvalNode on host node i,
// through plain and range-indexed columns.
func checkNodeBatch(t *testing.T, p *Program, host *graph.Graph, vNode graph.Attrs, s *Scratch) {
	t.Helper()
	mask := sets.NewBitset(host.NumNodes())
	for c, cols := range hostColumns(host) {
		p.EvalNodeBatch(&NodeBatch{VNode: vNode, Host: cols}, s, mask)
		for i := 0; i < host.NumNodes(); i++ {
			want := p.EvalNode(&NodeBinding{VNode: vNode, RNode: host.Node(graph.NodeID(i)).Attrs})
			if got := mask.Has(int32(i)); got != want {
				t.Fatalf("%q: host node %d (armed=%v): batch %v, EvalNode %v\nvNode=%v rNode=%v",
					p, i, c == 1, got, want, vNode, host.Node(graph.NodeID(i)).Attrs)
			}
		}
	}
}

// checkBatch runs p in every context it is valid in against a host drawn
// from seed — with string-free a, b and c columns when numeric — and
// query bags of every kind.
func checkBatch(t *testing.T, p *Program, seed int64, hostNodes int, numeric bool, s *Scratch) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := randomHost(rng, hostNodes, numeric)
	if p.CheckEdgeContext() == nil {
		checkEdgeBatch(t, p, host, randomBag(rng, false), randomBag(rng, false), randomBag(rng, false), s)
	}
	if p.CheckNodeContext() == nil {
		checkNodeBatch(t, p, host, randomBag(rng, false), s)
	}
}

// TestBatchEqualsScalar: random programs from the full grammar, and
// comparison-only ones of the shape range indexes answer, against random
// attribute bags — the batch evaluator, chunked or range-indexed, and the
// per-pair evaluator must agree on every element.
func TestBatchEqualsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s Scratch // one scratch across all programs, as BuildFilters reuses it
	for i := 0; i < 3000; i++ {
		var src string
		switch i % 6 {
		case 0, 2:
			src = randomExpr(rng, edgeObjs, 1+rng.Intn(4))
		case 4:
			src = randomExpr(rng, nodeObjs, 1+rng.Intn(4))
		case 1, 5:
			src = randomRangeExpr(rng, "rEdge", edgeQueryObjs, rng.Intn(4))
		default:
			src = randomRangeExpr(rng, "rNode", nodeQueryObjs, rng.Intn(4))
		}
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("generator produced invalid source %q: %v", src, err)
		}
		checkBatch(t, p, int64(i), 4+rng.Intn(8), i%2 == 1, &s)
	}
}

// TestBatchChunkBoundaries: universes around the chunk and word sizes,
// including a node universe wider than one chunk and an edge universe
// ending mid-word in its second chunk.
func TestBatchChunkBoundaries(t *testing.T) {
	edge := MustCompile("rEdge.a >= vEdge.a && rSource.b <= rTarget.b || isBoundTo(vSource.s, rTarget.s)")
	node := MustCompile("rNode.a >= vNode.a || has(rNode.s) && rNode.s != 'x'")
	var s Scratch
	ranged := MustCompile("rEdge.a >= vEdge.a && !(rEdge.b == 1) || -1 > rEdge.c")
	for _, n := range []int{0, 1, 2, 12, 46, 47} { // 47 nodes: 1081 edges
		checkBatch(t, edge, int64(n), n, false, &s)
		checkBatch(t, ranged, int64(n), n, true, &s)
	}
	rangedNode := MustCompile("rNode.a < vNode.b || rNode.b != 0 && !(rNode.c <= 1)")
	rng, numericRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(4))
	for _, n := range []int{63, 64, 65, batchChunk - 1, batchChunk, batchChunk + 1, 2*batchChunk + 70} {
		host, numeric := graph.NewUndirected(), graph.NewUndirected()
		for i := 0; i < n; i++ {
			host.AddNode("", randomBag(rng, false))
			numeric.AddNode("", randomBag(numericRng, true))
		}
		checkNodeBatch(t, node, host, randomBag(rng, false), &s)
		checkNodeBatch(t, rangedNode, numeric, randomBag(numericRng, false), &s)
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
		checkBatch(t, MustCompile(src), int64(100+i), 9, false, &s)
	}

	// The range path's corners: every comparison, in both operand orders
	// and negated, of a column holding NaN, ±0, ±Inf, missing and boolean
	// values with constants that are NaN, ±0, ±Inf, missing, a string or a
	// boolean; and of a column mixing strings and numbers, which falls back.
	host := graph.NewUndirected()
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	for _, v := range []graph.Value{graph.Num(nan), graph.Num(negZero), graph.Num(0), graph.Num(inf), graph.Num(-inf),
		{}, graph.Num(1), graph.Num(2), graph.Num(2), graph.BoolVal(true), graph.BoolVal(false), graph.Num(-3)} {
		bag := graph.Attrs{}.SetStr("s", "x").Set("b", v)
		if !v.IsMissing() {
			bag = bag.Set("a", v).Set("s", v)
		}
		host.AddNode("", bag)
	}
	for _, c := range []graph.Value{graph.Num(nan), graph.Num(negZero), graph.Num(0), graph.Num(inf), graph.Num(-inf),
		{}, graph.Str("x"), graph.BoolVal(true), graph.Num(1.5), graph.Num(2)} {
		vNode := graph.Attrs{}
		if !c.IsMissing() {
			vNode = vNode.Set("c", c)
		}
		for _, op := range []string{"<", ">", "<=", ">=", "==", "!="} {
			for _, attr := range []string{"a", "b", "s"} {
				col := "rNode." + attr
				for _, src := range []string{col + op + "vNode.c", "vNode.c" + op + col, "!(" + col + op + "vNode.c)"} {
					checkNodeBatch(t, MustCompile(src), host, vNode, &s)
				}
			}
		}
	}
}

// TestRangePathAnswersRangeablePrograms pins the dispatch: given range
// indexes, a rangeable program is answered from them and not from the
// columns — here the columns read missing everywhere and only the
// indexes hold the values — while a program of another shape, or one
// whose constant is not a number, still reads the columns.
func TestRangePathAnswersRangeablePrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	host := graph.NewUndirected()
	for i := 0; i < 200; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("a", float64(rng.Intn(9))))
	}
	real := host.NodeColumn("a", nil)
	cols := blankColumns{missing: &graph.Column{Tags: make([]graph.Tag, host.NumNodes()), Nums: make([]float64, host.NumNodes())},
		index: NewRange(real)}
	vNode := graph.Attrs{}.SetNum("lo", 3).SetStr("s", "x")
	var s Scratch
	mask := sets.NewBitset(host.NumNodes())
	for _, tc := range []struct {
		src         string
		fromIndexes bool
	}{
		{"rNode.a >= vNode.lo && !(rNode.a == 5)", true},
		{"vNode.lo * 2 > rNode.a || rNode.a != 8", true},
		{"rNode.a + 0 >= vNode.lo", false}, // arithmetic on the column
		{"rNode.a >= vNode.s", false},      // a string constant
		{"has(rNode.a)", false},
	} {
		p := MustCompile(tc.src)
		p.EvalNodeBatch(&NodeBatch{VNode: vNode, Host: cols}, &s, mask)
		for i := 0; i < host.NumNodes(); i++ {
			want := false
			if tc.fromIndexes {
				want = p.EvalNode(&NodeBinding{VNode: vNode, RNode: host.Node(graph.NodeID(i)).Attrs})
			}
			if got := mask.Has(int32(i)); got != want {
				t.Fatalf("%q: node %d = %v, want %v (answered from the indexes: %v)", tc.src, i, got, want, tc.fromIndexes)
			}
		}
	}
}

// blankColumns serves an all-missing column for every attribute and
// index as its range index.
type blankColumns struct {
	missing *graph.Column
	index   *Range
}

func (c blankColumns) EdgeColumn(string) *graph.Column { return c.missing }
func (c blankColumns) NodeColumn(string) *graph.Column { return c.missing }
func (c blankColumns) Range(col *graph.Column) *Range  { return c.index }

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
		checkBatch(t, p, 1, 6, false, &s)
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
	for i := 0; i < 20; i++ {
		f.Add(randomRangeExpr(rng, "rEdge", edgeQueryObjs, 3), int64(i))
		f.Add(randomRangeExpr(rng, "rNode", nodeQueryObjs, 3), int64(i))
	}
	f.Add("rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay", int64(7))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		var s Scratch
		checkBatch(t, p, seed, 6, false, &s)
		checkBatch(t, p, seed, 6, true, &s)
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
// columns — or armed range indexes — a batch evaluation allocates nothing.
func TestBatchSteadyStateDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	host, numeric := randomHost(rng, 20, false), randomHost(rng, 20, true)
	vEdge := graph.Attrs{}.SetNum("a", 1).SetNum("b", 2)
	for _, tc := range []struct {
		src  string
		host *graph.Graph
		cols Columns
	}{
		{"rEdge.a >= vEdge.a && rSource.b <= rTarget.b", host, cachedColumns{edge: map[string]*graph.Column{}, node: map[string]*graph.Column{}, g: host}},
		{"rEdge.a >= vEdge.a && !(rEdge.b > vEdge.b || rEdge.c == 0)", numeric, ArmedColumns(numeric, batchAttrs)},
	} {
		host := tc.host
		from, to := host.Endpoints(nil, nil)
		b := &EdgeBatch{VEdge: vEdge, Host: tc.cols, RSource: from, RTarget: to}
		p := MustCompile(tc.src)
		mask := sets.NewBitset(host.NumEdges())
		var s Scratch
		p.EvalEdgeBatch(b, &s, mask)
		if n := testing.AllocsPerRun(50, func() { p.EvalEdgeBatch(b, &s, mask) }); n != 0 {
			t.Fatalf("%q: warm batch evaluation allocates %v times per run, want 0", tc.src, n)
		}
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

// delayHost is a complete graph on 242 nodes: 29,161 edges, the
// paper-sized host's count, each with a uniform avgDelay in [0, 100).
func delayHost() *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	host := graph.NewUndirected()
	host.AddNodes(242)
	for u := 0; u < 242; u++ {
		for v := u + 1; v < 242; v++ {
			host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), graph.Attrs{}.SetNum("avgDelay", rng.Float64()*100))
		}
	}
	return host
}

// BenchmarkEvalEdgeBatchDelayWindow is one query edge's delay-window
// evaluation over the paper-sized host's edges: chunked over the cached
// column, and armed — answered from the column's range index.
func BenchmarkEvalEdgeBatchDelayWindow(b *testing.B) {
	host := delayHost()
	p := MustCompile("rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
	for _, mode := range []string{"chunked", "armed"} {
		b.Run(mode, func(b *testing.B) {
			var cols Columns = cachedColumns{edge: map[string]*graph.Column{}, node: map[string]*graph.Column{}, g: host}
			if mode == "armed" {
				cols = ArmedColumns(host, []string{"avgDelay"})
			}
			batch := &EdgeBatch{VEdge: graph.Attrs{}.SetNum("minDelay", 20).SetNum("maxDelay", 60), Host: cols}
			mask := sets.NewBitset(host.NumEdges())
			var s Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.EvalEdgeBatch(batch, &s, mask)
			}
		})
	}
}

// BenchmarkNewRange builds the range index of a 29,161-element column —
// the cost a snapshot pays once per column when the index arms — and
// fails above the 3 ms the arming rule is sized for.
func BenchmarkNewRange(b *testing.B) {
	col := delayHost().EdgeColumn("avgDelay", nil)
	NewRange(col) // the heap grows to the working set outside the timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NewRange(col) == nil {
			b.Fatal("no index over a numeric column")
		}
	}
	if perOp := b.Elapsed() / time.Duration(b.N); perOp > 3*time.Millisecond {
		b.Fatalf("range index build takes %v on 29k elements, target ≤ 3ms", perOp)
	}
}
