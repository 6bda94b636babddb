package expr

import (
	"math/rand"
	"strings"
	"testing"

	"netembed/internal/graph"
)

// evalConstExpr compiles src (which must not reference any object) and
// returns its value through an empty environment.
func evalConstExpr(t *testing.T, src string) graph.Value {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	var e env
	return p.root.eval(&e)
}

func wantNum(t *testing.T, src string, want float64) {
	t.Helper()
	v := evalConstExpr(t, src)
	got, ok := v.Float()
	if !ok || got != want {
		t.Errorf("%q = %v, want %v", src, v, want)
	}
}

func wantBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := evalConstExpr(t, src)
	got, ok := v.Truth()
	if !ok || got != want {
		t.Errorf("%q = %v, want %v", src, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	wantNum(t, "1+2", 3)
	wantNum(t, "1+2*3", 7)       // precedence
	wantNum(t, "(1+2)*3", 9)     // parens
	wantNum(t, "10-4-3", 3)      // left assoc
	wantNum(t, "24/4/2", 3)      // left assoc
	wantNum(t, "-5+2", -3)       // unary minus
	wantNum(t, "--5", 5)         // double negation
	wantNum(t, "2*-3", -6)       // unary in factor
	wantNum(t, "0.5*4", 2)       // decimals
	wantNum(t, ".25*4", 1)       // leading dot
	wantNum(t, "1e2+1", 101)     // exponent
	wantNum(t, "1.5e-1*10", 1.5) // signed exponent
	wantNum(t, "abs(-4)", 4)
	wantNum(t, "sqrt(9)", 3)
	wantNum(t, "floor(2.7)", 2)
	wantNum(t, "ceil(2.2)", 3)
	wantNum(t, "min(3,1,2)", 1)
	wantNum(t, "max(3,1,2)", 3)
	wantNum(t, "min(1+1, 5)", 2)
}

func TestComparisonsAndLogic(t *testing.T) {
	wantBool(t, "1 < 2", true)
	wantBool(t, "2 < 1", false)
	wantBool(t, "2 <= 2", true)
	wantBool(t, "3 >= 4", false)
	wantBool(t, "3 > 2", true)
	wantBool(t, "1 == 1", true)
	wantBool(t, "1 != 1", false)
	wantBool(t, `"a" == "a"`, true)
	wantBool(t, `"a" != "b"`, true)
	wantBool(t, `"abc" < "abd"`, true)
	wantBool(t, `'single' == "single"`, true)
	wantBool(t, "true", true)
	wantBool(t, "false", false)
	wantBool(t, "!false", true)
	wantBool(t, "!!true", true)
	wantBool(t, "true && false", false)
	wantBool(t, "true && true", true)
	wantBool(t, "false || true", true)
	wantBool(t, "false || false", false)
	// Precedence: && binds tighter than ||.
	wantBool(t, "true || false && false", true)
	wantBool(t, "(true || false) && false", false)
	// Comparison binds tighter than &&.
	wantBool(t, "1 < 2 && 3 < 4", true)
	// Arithmetic inside comparison.
	wantBool(t, "2+3 == 5", true)
	// Equality on booleans.
	wantBool(t, "(1<2) == (3<4)", true)
	// Mixed-kind equality is false, not an error.
	wantBool(t, `1 == "1"`, false)
	wantBool(t, `1 != "1"`, true)
}

func TestDivisionByZeroIsUnknown(t *testing.T) {
	v := evalConstExpr(t, "1/0")
	if !v.IsMissing() {
		t.Errorf("1/0 = %v, want missing", v)
	}
	// An unknown inside a conjunction with false still collapses to false.
	wantBool(t, "1/0 > 3 && false", false)
	wantBool(t, "false && 1/0 > 3", false)
	wantBool(t, "true || 1/0 > 3", true)
}

func TestSqrtOfNegativeIsUnknown(t *testing.T) {
	if v := evalConstExpr(t, "sqrt(-1)"); !v.IsMissing() {
		t.Errorf("sqrt(-1) = %v, want missing", v)
	}
}

func edgeBinding() *EdgeBinding {
	return &EdgeBinding{
		VEdge:   graph.Attrs{}.SetNum("avgDelay", 100),
		REdge:   graph.Attrs{}.SetNum("avgDelay", 95).SetNum("minDelay", 90).SetNum("maxDelay", 120),
		VSource: graph.Attrs{}.SetStr("osType", "linux").SetNum("x", 3),
		VTarget: graph.Attrs{}.SetNum("x", 0).SetNum("y", 4),
		RSource: graph.Attrs{}.SetStr("osType", "linux").SetStr("name", "planet1"),
		RTarget: graph.Attrs{}.SetStr("osType", "freebsd"),
	}
}

func TestPaperExamples(t *testing.T) {
	b := edgeBinding()

	// §VI-B example 1: tolerate 10% deviation around the requested delay.
	p := MustCompile("vEdge.avgDelay>=0.90*rEdge.avgDelay && vEdge.avgDelay<=1.10*rEdge.avgDelay")
	if !p.EvalEdge(b) {
		t.Error("10% deviation example should accept 100 vs 95")
	}

	// §VI-B example 2: requested delay within [min,max] of the real link.
	p = MustCompile("vEdge.avgDelay>=rEdge.minDelay && vEdge.avgDelay<=rEdge.maxDelay")
	if !p.EvalEdge(b) {
		t.Error("min/max range example should accept 100 in [90,120]")
	}

	// §VI-B example 3: matching OS types via isBoundTo.
	p = MustCompile("isBoundTo(vSource.osType, rSource.osType)")
	if !p.EvalEdge(b) {
		t.Error("osType linux should bind to linux")
	}
	// Target nodes differ in osType, but vTarget has no osType: vacuous.
	p = MustCompile("isBoundTo(vTarget.osType, rTarget.osType)")
	if !p.EvalEdge(b) {
		t.Error("missing query attr must be unconstrained")
	}

	// §VI-B example 4: pinning a node by name.
	p = MustCompile("isBoundTo(vSource.bindTo, rSource.name)")
	if !p.EvalEdge(b) {
		t.Error("absent bindTo must be unconstrained")
	}
	b.VSource = b.VSource.SetStr("bindTo", "planet1")
	if !p.EvalEdge(b) {
		t.Error("bindTo planet1 should match name planet1")
	}
	b.VSource = b.VSource.SetStr("bindTo", "planet2")
	if p.EvalEdge(b) {
		t.Error("bindTo planet2 must not match name planet1")
	}

	// §VI-B example 5: geographic distance bound.
	p = MustCompile("sqrt( (vSource.x-vTarget.x)*(vSource.x-vTarget.x) + (vSource.y-vTarget.y)*(vSource.y-vTarget.y) ) < 100.0")
	// vSource.y is missing: constraint is unknown, therefore not satisfied.
	if p.EvalEdge(b) {
		t.Error("distance with missing coordinate must not be satisfied")
	}
	b.VSource = b.VSource.SetNum("y", 0)
	if !p.EvalEdge(b) { // distance = 5 < 100
		t.Error("distance 5 should satisfy < 100")
	}
}

func TestMissingAttributePropagation(t *testing.T) {
	b := &EdgeBinding{} // all bags nil
	p := MustCompile("vEdge.avgDelay >= 10")
	if p.EvalEdge(b) {
		t.Error("comparison with missing attr satisfied")
	}
	p = MustCompile("!(vEdge.avgDelay >= 10)")
	if p.EvalEdge(b) {
		t.Error("negated unknown must stay unknown")
	}
	p = MustCompile("has(vEdge.avgDelay)")
	if p.EvalEdge(b) {
		t.Error("has on missing attr")
	}
	b.VEdge = graph.Attrs{}.SetNum("avgDelay", 5)
	if !p.EvalEdge(b) {
		t.Error("has on present attr")
	}
	// has can gate a comparison to make absence acceptable.
	p = MustCompile("!has(vEdge.bw) || vEdge.bw > 100")
	if !p.EvalEdge(b) {
		t.Error("absent bw should pass the gated constraint")
	}
	b.VEdge = b.VEdge.SetNum("bw", 50)
	if p.EvalEdge(b) {
		t.Error("bw 50 must fail the gated constraint")
	}
}

func TestEmptyProgramAcceptsEverything(t *testing.T) {
	for _, src := range []string{"", "   ", "\t\n"} {
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		if !p.EvalEdge(&EdgeBinding{}) {
			t.Errorf("empty program %q rejected", src)
		}
	}
}

func TestNodeContext(t *testing.T) {
	p := MustCompile("vNode.cpu <= rNode.cpu && isBoundTo(vNode.osType, rNode.osType)")
	if err := p.CheckNodeContext(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckEdgeContext(); err == nil {
		t.Error("node program accepted as edge program")
	}
	b := &NodeBinding{
		VNode: graph.Attrs{}.SetNum("cpu", 2),
		RNode: graph.Attrs{}.SetNum("cpu", 4).SetStr("osType", "linux"),
	}
	if !p.EvalNode(b) {
		t.Error("cpu 2<=4 with unconstrained os should pass")
	}
	b.VNode = b.VNode.SetNum("cpu", 8)
	if p.EvalNode(b) {
		t.Error("cpu 8<=4 should fail")
	}
}

func TestContextChecks(t *testing.T) {
	edge := MustCompile("vEdge.d < rEdge.d")
	if err := edge.CheckEdgeContext(); err != nil {
		t.Error(err)
	}
	if err := edge.CheckNodeContext(); err != ErrNotNodeProgram {
		t.Errorf("CheckNodeContext = %v", err)
	}
	mixed := MustCompile("vEdge.d < 5 && vNode.cpu > 1")
	if err := mixed.CheckEdgeContext(); err != ErrNotEdgeProgram {
		t.Errorf("CheckEdgeContext = %v", err)
	}
	konst := MustCompile("1 < 2")
	if err := konst.CheckEdgeContext(); err != nil {
		t.Error(err)
	}
	if err := konst.CheckNodeContext(); err != nil {
		t.Error(err)
	}
	if !konst.EvalConst() {
		t.Error("EvalConst(1<2) = false")
	}
}

func TestUses(t *testing.T) {
	p := MustCompile("vEdge.d < rEdge.d && rSource.up == true")
	for _, c := range []struct {
		o    Object
		want bool
	}{
		{ObjVEdge, true}, {ObjREdge, true}, {ObjRSource, true},
		{ObjVSource, false}, {ObjVTarget, false}, {ObjRTarget, false},
		{ObjVNode, false}, {ObjRNode, false},
	} {
		if got := p.Uses(c.o); got != c.want {
			t.Errorf("Uses(%v) = %v, want %v", c.o, got, c.want)
		}
	}
}

func TestRefs(t *testing.T) {
	p := MustCompile("vEdge.d < rEdge.d && rEdge.d > 0 && isBoundTo(vSource.os, rSource.os)")
	refs := p.Refs()
	want := []AttrRef{
		{ObjVEdge, "d"},
		{ObjREdge, "d"}, // deduplicated: appears twice in the source
		{ObjVSource, "os"},
		{ObjRSource, "os"},
	}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
	if got := want[0].String(); got != "vEdge.d" {
		t.Errorf("AttrRef.String = %q", got)
	}
	// Mutating the returned slice must not affect the program.
	refs[0].Attr = "corrupted"
	if p.Refs()[0].Attr != "d" {
		t.Error("Refs returned aliased storage")
	}
	if got := MustCompile("1 < 2").Refs(); len(got) != 0 {
		t.Errorf("constant program refs = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"1 +", "unexpected"},
		{"(1", "expected ')'"},
		{"foo.bar > 1", "unknown object"},
		{"vEdge.", "expected attribute name"},
		{"vEdge", "bare identifier"},
		{"nosuchfn(1)", "unknown function"},
		{"abs()", "1 argument"},
		{"abs(1,2)", "1 argument"},
		{"min(1)", "2+ arguments"},
		{"isBoundTo(vEdge.a)", "2 arguments"},
		{"1 & 2", "single"},
		{"1 | 2", "single"},
		{"1 = 2", "single '='"},
		{"1 2", "trailing input"},
		{`"unterminated`, "unterminated string"},
		{`"bad \q escape"`, "bad escape"},
		{"@", "unexpected character"},
		{"1e+ > 0", "bad number"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Compile(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile on bad input did not panic")
		}
	}()
	MustCompile("1 +")
}

func TestStringRoundtrip(t *testing.T) {
	src := "vEdge.avgDelay >= 1 && vEdge.avgDelay <= 2"
	if got := MustCompile(src).String(); got != src {
		t.Errorf("String = %q", got)
	}
}

func TestKleeneTruthTable(t *testing.T) {
	// Build unknown via a missing attribute.
	b := &EdgeBinding{VEdge: graph.Attrs{}.SetNum("x", 1)}
	u := "vEdge.nope > 0" // unknown
	cases := []struct {
		src  string
		want bool // satisfied?
	}{
		{"true && " + u, false},
		{u + " && true", false},
		{"false && " + u, false},
		{u + " && false", false},
		{"true || " + u, true},
		{u + " || true", true},
		{"false || " + u, false},
		{u + " || false", false},
		{"!(" + u + ")", false},
	}
	for _, c := range cases {
		if got := MustCompile(c.src).EvalEdge(b); got != c.want {
			t.Errorf("%q satisfied = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestProgramIsConcurrencySafe(t *testing.T) {
	p := MustCompile("vEdge.d >= rEdge.min && vEdge.d <= rEdge.max")
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func(i int) {
			b := &EdgeBinding{
				VEdge: graph.Attrs{}.SetNum("d", float64(i)),
				REdge: graph.Attrs{}.SetNum("min", 0).SetNum("max", 100),
			}
			ok := true
			for j := 0; j < 1000; j++ {
				if !p.EvalEdge(b) {
					ok = false
				}
			}
			done <- ok
		}(i)
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("concurrent evaluation failed")
		}
	}
}

func BenchmarkEvalDelayRange(b *testing.B) {
	p := MustCompile("vEdge.avgDelay>=rEdge.minDelay && vEdge.avgDelay<=rEdge.maxDelay")
	bind := edgeBindingForBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.EvalEdge(bind) {
			b.Fatal("unexpected reject")
		}
	}
}

func BenchmarkCompileDelayRange(b *testing.B) {
	src := "vEdge.avgDelay>=rEdge.minDelay && vEdge.avgDelay<=rEdge.maxDelay"
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func edgeBindingForBench() *EdgeBinding {
	return &EdgeBinding{
		VEdge: graph.Attrs{}.SetNum("avgDelay", 100),
		REdge: graph.Attrs{}.SetNum("minDelay", 90).SetNum("maxDelay", 120),
	}
}

// TestCompileStaysInItsSlabs pins newParser's bounds: the parse of any
// source — random programs from the full grammar, and malformed ones —
// carves every node and operand list out of the slabs newParser sized,
// never starting another, and records no more references than it made
// room for.
func TestCompileStaysInItsSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srcs := []string{"", "1+2*3", "min(1,2,3,4,5,6) == max(-1,1)", "((((1))))", "'a' == \"b\\\"c\"",
		"!has(vNode.seed) || has(rNode.seed)", "vEdge.a.b", "1 . 2", "abs(", "vEdge.", "\xaa", "-(-(-1))"}
	for i := 0; i < 300; i++ {
		srcs = append(srcs, randomExpr(rng, edgeObjs, 4), randomExpr(rng, nodeObjs, 4))
	}
	for _, src := range srcs {
		p := newParser(src)
		nodes, args, refs := p.nodes[:cap(p.nodes)], p.args[:cap(p.args)], cap(p.refs)
		if err := p.advance(); err == nil && p.tok.kind != tokEOF {
			p.parseExpr()
		}
		if len(p.nodes) > 0 && &p.nodes[0] != &nodes[0] || len(p.args) > 0 && (len(args) == 0 || &p.args[0] != &args[0]) || len(p.refs) > refs {
			t.Errorf("%q: the parse outgrew its slabs: %d nodes (room for %d), %d operands (%d), %d refs (%d)",
				src, len(p.nodes), len(nodes), len(p.args), len(args), len(p.refs), refs)
		}
	}
}
