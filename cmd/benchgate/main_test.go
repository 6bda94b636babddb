package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

const baseRun = `
goos: linux
goarch: amd64
pkg: netembed
BenchmarkRepr_ECF_Search/n512/bitset-8         	     100	   1000000 ns/op
BenchmarkRepr_ECF_Search/n512/bitset-8         	     100	   1100000 ns/op
BenchmarkRepr_ECF_Search/n512/bitset-8         	     100	    900000 ns/op
BenchmarkEngineThroughput/w4/warm-8            	    5000	      2000 ns/op	 120 B/op	       3 allocs/op
BenchmarkEngineThroughput/w4/warm-8            	    5000	      2200 ns/op	 120 B/op	       3 allocs/op
BenchmarkFig08_ECF_PlanetLab-8                 	      50	   5000000 ns/op
BenchmarkGone-8                                	      10	    111111 ns/op
PASS
`

const headRun = `
BenchmarkRepr_ECF_Search/n512/bitset-16        	     100	   1050000 ns/op
BenchmarkRepr_ECF_Search/n512/bitset-16        	     100	   1060000 ns/op
BenchmarkRepr_ECF_Search/n512/bitset-16        	     100	   1040000 ns/op
BenchmarkEngineThroughput/w4/warm-16           	    5000	      3000 ns/op
BenchmarkEngineThroughput/w4/warm-16           	    5000	      3100 ns/op
BenchmarkFig08_ECF_PlanetLab-16                	      50	  50000000 ns/op
BenchmarkNew/sub-16                            	      10	    222222 ns/op
`

func parse(t *testing.T, s string) map[string]*Samples {
	t.Helper()
	m, err := ParseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parse(t, baseRun)
	if got := len(m["BenchmarkRepr_ECF_Search/n512/bitset"].NsOp); got != 3 {
		t.Fatalf("got %d samples, want 3 (GOMAXPROCS suffix must be stripped)", got)
	}
	eng := m["BenchmarkEngineThroughput/w4/warm"]
	if len(eng.NsOp) != 2 || eng.NsOp[0] != 2000 {
		t.Fatalf("engine ns samples = %v", eng.NsOp)
	}
	if len(eng.AllocsOp) != 2 || eng.AllocsOp[0] != 3 {
		t.Fatalf("engine allocs samples = %v — -benchmem columns must parse", eng.AllocsOp)
	}
	if _, ok := m["PASS"]; ok {
		t.Fatal("non-benchmark lines leaked into the parse")
	}
}

func TestCompareGate(t *testing.T) {
	gate := regexp.MustCompile(`^BenchmarkRepr_|^BenchmarkEngineThroughput`)
	report := Compare(parse(t, baseRun), parse(t, headRun), gate, 0.10, 0.10)

	byName := map[string]Result{}
	for _, r := range report.Results {
		byName[r.Name] = r
	}

	// Repr: medians 1000000 -> 1050000 = +5%: gated but tolerated.
	repr := byName["BenchmarkRepr_ECF_Search/n512/bitset"]
	if !repr.Gated || repr.Regression {
		t.Fatalf("repr: %+v, want gated and within threshold", repr)
	}
	if repr.BaseNsOp != 1000000 || repr.HeadNsOp != 1050000 {
		t.Fatalf("repr medians = %v -> %v", repr.BaseNsOp, repr.HeadNsOp)
	}

	// Engine: 2100 -> 3050 = +45%: gated regression. The head run carries
	// no -benchmem columns, so allocations must not gate it.
	eng := byName["BenchmarkEngineThroughput/w4/warm"]
	if !eng.Regression {
		t.Fatalf("engine: %+v, want regression", eng)
	}
	if eng.HasAllocs {
		t.Fatalf("engine: %+v, allocs must not compare when one side lacks them", eng)
	}

	// Fig08 regressed 10x but is not gated.
	fig := byName["BenchmarkFig08_ECF_PlanetLab"]
	if fig.Gated || fig.Regression {
		t.Fatalf("fig08: %+v, want ungated and non-failing", fig)
	}

	// One-sided benchmarks are reported but never gate.
	if byName["BenchmarkGone"].OnlyIn != "base" || byName["BenchmarkNew/sub"].OnlyIn != "head" {
		t.Fatal("one-sided benchmarks misreported")
	}

	if len(report.Regressions) != 1 || report.Regressions[0] != "BenchmarkEngineThroughput/w4/warm" {
		t.Fatalf("regressions = %v", report.Regressions)
	}
}

// TestCompareGatesAllocs pins the -benchmem gate: a benchmark whose ns/op
// held steady but whose allocs/op blew past the allocation threshold must
// regress, and allocation deltas within threshold must not.
func TestCompareGatesAllocs(t *testing.T) {
	const base = `
BenchmarkServePath/warm-8	1000	 750000 ns/op	103000 B/op	1957 allocs/op
BenchmarkServePath/cached-8	1000	 620000 ns/op	106000 B/op	 480 allocs/op
`
	const head = `
BenchmarkServePath/warm-8	1000	 760000 ns/op	300000 B/op	4300 allocs/op
BenchmarkServePath/cached-8	1000	 615000 ns/op	106500 B/op	 500 allocs/op
`
	gate := regexp.MustCompile(`^BenchmarkServePath`)
	report := Compare(parse(t, base), parse(t, head), gate, 0.10, 0.10)
	byName := map[string]Result{}
	for _, r := range report.Results {
		byName[r.Name] = r
	}
	warm := byName["BenchmarkServePath/warm"]
	if !warm.HasAllocs || !warm.Regression {
		t.Fatalf("warm: %+v, want allocs-driven regression (+%.0f%% allocs at +1%% ns)",
			warm, warm.AllocsDelta*100)
	}
	cached := byName["BenchmarkServePath/cached"]
	if cached.Regression {
		t.Fatalf("cached: %+v, +4%% allocs is within the 10%% threshold", cached)
	}
	if len(report.Regressions) != 1 || report.Regressions[0] != "BenchmarkServePath/warm" {
		t.Fatalf("regressions = %v", report.Regressions)
	}
}

func TestCompareNoRegression(t *testing.T) {
	gate := regexp.MustCompile(`^BenchmarkRepr_`)
	report := Compare(parse(t, baseRun), parse(t, headRun), gate, 0.10, 0.10)
	if len(report.Regressions) != 0 {
		t.Fatalf("regressions = %v, want none under a Repr-only gate", report.Regressions)
	}
}

// TestGatedSubBenchmarkAbsentOnBase: a sub-benchmark added under a gated
// parent exists only on the head side of the PR that adds it — however
// slow, it is reported (gated, head-only) and cannot fail that PR; from
// the next PR on both sides have it and it gates like its siblings.
func TestGatedSubBenchmarkAbsentOnBase(t *testing.T) {
	const base = `
BenchmarkServePath/warm-8	1000	 230000 ns/op	 42000 B/op	 151 allocs/op
`
	const head = `
BenchmarkServePath/warm-8	1000	 231000 ns/op	 42000 B/op	 151 allocs/op
BenchmarkServePath/warm_constrained-8	 300	 900000 ns/op	 46000 B/op	 175 allocs/op
`
	gate := regexp.MustCompile(`^BenchmarkServePath`)
	report := Compare(parse(t, base), parse(t, head), gate, 0.10, 0.10)
	if len(report.Regressions) != 0 {
		t.Fatalf("regressions = %v, want none", report.Regressions)
	}
	for _, r := range report.Results {
		if r.Name == "BenchmarkServePath/warm_constrained" {
			if !r.Gated || r.OnlyIn != "head" || r.Regression || r.HeadNsOp != 900000 {
				t.Fatalf("head-only gated sub-benchmark: %+v", r)
			}
			return
		}
	}
	t.Fatal("head-only sub-benchmark missing from the report")
}

// TestWorkflowGateMatchesSubBenchmarks pins the CI workflow's GATE to the
// names benchgate actually compares: full sub-benchmark paths (with the
// GOMAXPROCS suffix stripped). A right-anchored pattern would silently
// gate nothing for benchmarks that only emit sub-benchmark lines.
func TestWorkflowGateMatchesSubBenchmarks(t *testing.T) {
	raw, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading workflow: %v", err)
	}
	m := regexp.MustCompile(`(?m)^\s*GATE:\s*'([^']+)'`).FindSubmatch(raw)
	if m == nil {
		t.Fatal("no GATE env var found in ci.yml")
	}
	gate, err := regexp.Compile(string(m[1]))
	if err != nil {
		t.Fatalf("GATE does not compile: %v", err)
	}
	for _, name := range []string{
		"BenchmarkRepr_ECF_Search/n512/bitset",
		"BenchmarkEngineThroughput/workers=4/warm",
		"BenchmarkEngineThroughput/workers=16/cold",
		"BenchmarkSearch_FC_vs_Chrono/dense512/subgraph/fc",
		"BenchmarkSearch_FC_vs_Chrono/dense512/clique/fc",
		"BenchmarkSearch_FC_vs_Chrono/nomatch512/fc",
		"BenchmarkSearch_FC_vs_Chrono/skewedring/fc",
		"BenchmarkSearch_FC_vs_Chrono/pigeonhole8/fc",
		"BenchmarkPathEmbed_FC_vs_Seed/dense512/windowed/fc",
		"BenchmarkPathEmbed_FC_vs_Seed/nomatch128/fc",
		"BenchmarkRepair_SeededVsScratch/seeded",
		"BenchmarkRepair_SeededVsScratch/scratch",
		"BenchmarkServePath/warm",
		"BenchmarkServePath/warm_constrained",
		"BenchmarkServePath/novel",
		"BenchmarkServePath/exclude_reserved",
		"BenchmarkServePath/cached",
		"BenchmarkOptimize_BnB_vs_Enumerate/n512/bnb",
		"BenchmarkOptimize_BnB_vs_Enumerate/n512/enumerate",
		"BenchmarkApplyDelta/attr",
		"BenchmarkApplyDelta/edge_remove",
		"BenchmarkApplyDelta/edge_add",
		"BenchmarkBuildFilters/planetlab296_window",
		"BenchmarkDecodeQuery/query8",
		"BenchmarkDecodeQuery/host296",
		"BenchmarkEncodeQuery/query8",
	} {
		if !gate.MatchString(name) {
			t.Errorf("GATE %q does not gate %q", m[1], name)
		}
	}
	for _, name := range []string{
		"BenchmarkFig08_ECF_PlanetLab",
		"BenchmarkIndexDelta/delta-apply",
		"BenchmarkParallelECF_StealVsStatic/steal",
	} {
		if gate.MatchString(name) {
			t.Errorf("GATE %q unexpectedly gates %q", m[1], name)
		}
	}
}

// TestGateMatchingNothingIsRefused: a gate that matches no head
// benchmark would pass every comparison, so benchgate refuses it. The
// right-anchored form is the one that slipped through before.
func TestGateMatchingNothingIsRefused(t *testing.T) {
	head := parse(t, headRun)
	for _, expr := range []string{`^BenchmarkEngineThroughput$`, `^BenchmarkNoSuch`} {
		err := checkGate(regexp.MustCompile(expr), head)
		if err == nil || !strings.Contains(err.Error(), "gate nothing") {
			t.Errorf("gate %q: err = %v, want a refusal", expr, err)
		}
	}
	if err := checkGate(regexp.MustCompile(`^BenchmarkEngineThroughput`), head); err != nil {
		t.Errorf("a gate matching a sub-benchmark was refused: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

func loadDocFor(count uint64, p99 uint64, allocs float64) loadDoc {
	var d loadDoc
	d.Schema = "netembedload/2"
	d.Overall.Count = count
	d.Overall.P99Ns = p99
	d.Server.AllocsPerRequest = allocs
	return d
}

// TestReadLoadDocSchemas pins which LOAD_*.json schemas the gate reads:
// netembedload/1 (pre-optimize baselines), /2 (optimize op) and /3
// (per-shard routing counts) all decode to the same gated fields;
// anything else is refused so a harness/gate version skew fails loudly
// instead of comparing garbage.
func TestReadLoadDocSchemas(t *testing.T) {
	const body = `{"schema":%q,"overall":{"count":42,"errors":1,"p50Ns":100,"p99Ns":900},"server":{"allocsPerRequest":7.5}}`
	dir := t.TempDir()
	for _, schema := range []string{"netembedload/1", "netembedload/2", "netembedload/3"} {
		path := dir + "/" + strings.ReplaceAll(schema, "/", "_") + ".json"
		if err := os.WriteFile(path, []byte(fmt.Sprintf(body, schema)), 0o644); err != nil {
			t.Fatal(err)
		}
		doc, err := readLoadDoc(path)
		if err != nil {
			t.Fatalf("schema %s refused: %v", schema, err)
		}
		if doc.Overall.Count != 42 || doc.Overall.P99Ns != 900 || doc.Server.AllocsPerRequest != 7.5 {
			t.Fatalf("schema %s decoded wrong: %+v", schema, doc)
		}
	}
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte(fmt.Sprintf(body, "netembedload/4")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readLoadDoc(bad); err == nil {
		t.Fatal("unknown schema netembedload/4 must be refused")
	}
}

// TestCompareLoad pins the load-mode gate: >15% p99 or >10%
// allocs/request fails, improvements and in-threshold drift pass, and a
// head run that completed nothing always fails.
func TestCompareLoad(t *testing.T) {
	base := loadDocFor(1000, 10_000_000, 500)

	ok := CompareLoad(base, loadDocFor(900, 11_000_000, 520), 0.15, 0.10, 0)
	if len(ok.Failures) != 0 {
		t.Fatalf("+10%% p99 / +4%% allocs failed: %v", ok.Failures)
	}

	slow := CompareLoad(base, loadDocFor(900, 12_000_000, 500), 0.15, 0.10, 0)
	if len(slow.Failures) != 1 || !strings.Contains(slow.Failures[0], "p99") {
		t.Fatalf("+20%% p99 should fail the p99 gate: %v", slow.Failures)
	}

	leaky := CompareLoad(base, loadDocFor(900, 10_000_000, 600), 0.15, 0.10, 0)
	if len(leaky.Failures) != 1 || !strings.Contains(leaky.Failures[0], "allocs") {
		t.Fatalf("+20%% allocs should fail the allocation gate: %v", leaky.Failures)
	}

	improved := CompareLoad(base, loadDocFor(900, 5_000_000, 100), 0.15, 0.10, 0)
	if len(improved.Failures) != 0 {
		t.Fatalf("improvement failed the gate: %v", improved.Failures)
	}

	empty := CompareLoad(base, loadDocFor(0, 0, 0), 0.15, 0.10, 0)
	if len(empty.Failures) == 0 {
		t.Fatal("a head run with zero completions must fail")
	}

	// The noise floor mutes tiny-latency jitter: both sides under 1ms.
	quiet := CompareLoad(loadDocFor(1000, 400_000, 100), loadDocFor(1000, 700_000, 100),
		0.15, 0.10, 1_000_000)
	if len(quiet.Failures) != 0 {
		t.Fatalf("sub-floor p99 jitter must not gate: %v", quiet.Failures)
	}
}
