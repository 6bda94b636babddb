// Command benchgate compares two performance artifacts and fails when a
// gated metric regressed beyond its threshold. CI runs it after
// benchstat: benchstat renders the human-readable comparison, benchgate
// enforces the gate and emits the machine-readable artifact
// (BENCH_pr<N>.json / LOAD_pr<N>.json comparison) the workflow uploads.
//
// Bench mode (default) diffs two `go test -bench -benchmem` output files:
//
//	benchgate -base base.txt -head head.txt -out bench.json \
//	          -gate '^BenchmarkRepr_|^BenchmarkEngineThroughput' \
//	          -threshold 0.10 -allocs-threshold 0.10
//
// Per benchmark the median ns/op across repetitions (-count 5 runs) is
// compared; medians shrug off the one-off scheduling hiccups that make
// means useless on shared CI runners. allocs/op — deterministic, so far
// more sensitive than ns/op — is gated separately when both sides report
// it. Benchmarks present on only one side are reported but never gate
// (new or deleted benchmarks must not fail the pipeline that introduces
// them).
//
// Load mode (-load) diffs two netembedload LOAD_*.json reports:
//
//	benchgate -load -base LOAD_base.json -head LOAD_head.json \
//	          -p99-threshold 0.15 -allocs-threshold 0.10 -out cmp.json
//
// gating the overall p99 latency and the server-side allocations per
// completed request.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		basePath  = flag.String("base", "", "bench output (or LOAD json, with -load) of the base commit")
		headPath  = flag.String("head", "", "bench output (or LOAD json, with -load) of the PR head")
		outPath   = flag.String("out", "", "JSON report path (empty = stdout only)")
		gateExpr  = flag.String("gate", "^BenchmarkRepr_|^BenchmarkEngineThroughput", "regexp of benchmarks that gate the build")
		threshold = flag.Float64("threshold", 0.10, "maximum tolerated relative ns/op regression on gated benchmarks")
		allocsThr = flag.Float64("allocs-threshold", 0.10, "maximum tolerated relative allocs/op (or allocs/request) regression")
		loadMode  = flag.Bool("load", false, "compare netembedload LOAD_*.json reports instead of bench output")
		p99Thr    = flag.Float64("p99-threshold", 0.15, "load mode: maximum tolerated relative overall-p99 regression")
		minP99Ns  = flag.Float64("min-p99-ns", 0, "load mode: ignore p99 regressions when both sides are below this floor")
	)
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		os.Exit(2)
	}

	if *loadMode {
		runLoadMode(*basePath, *headPath, *outPath, *p99Thr, *allocsThr, *minP99Ns)
		return
	}

	gate, err := regexp.Compile(*gateExpr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -gate: %v\n", err)
		os.Exit(2)
	}

	base, err := parseFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	head, err := parseFile(*headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	if err := checkGate(gate, head); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	report := Compare(base, head, gate, *threshold, *allocsThr)
	writeOut(*outPath, report)

	for _, r := range report.Results {
		marker := " "
		if r.Regression {
			marker = "!"
		}
		line := fmt.Sprintf("%s %-60s %12.0f -> %12.0f ns/op  %+6.1f%%",
			marker, r.Name, r.BaseNsOp, r.HeadNsOp, r.Delta*100)
		if r.HasAllocs {
			line += fmt.Sprintf("  %8.0f -> %8.0f allocs/op  %+6.1f%%",
				r.BaseAllocsOp, r.HeadAllocsOp, r.AllocsDelta*100)
		}
		fmt.Println(line + gatedSuffix(r.Gated))
	}
	if len(report.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gated benchmark(s) regressed (ns/op > %.0f%% or allocs/op > %.0f%%): %s\n",
			len(report.Regressions), *threshold*100, *allocsThr*100, strings.Join(report.Regressions, ", "))
		os.Exit(1)
	}
	fmt.Printf("benchgate: no gated regression beyond %.0f%% ns/op, %.0f%% allocs/op\n",
		*threshold*100, *allocsThr*100)
}

func writeOut(path string, v any) {
	if path == "" {
		return
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
}

func gatedSuffix(gated bool) string {
	if gated {
		return "  [gated]"
	}
	return ""
}

// Report is the JSON artifact uploaded by CI.
type Report struct {
	Gate            string   `json:"gate"`
	Threshold       float64  `json:"threshold"`
	AllocsThreshold float64  `json:"allocsThreshold"`
	Results         []Result `json:"results"`
	Regressions     []string `json:"regressions"`
}

// Result compares one benchmark across the two runs. Deltas are relative:
// (head-base)/base, positive = slower / more allocations.
type Result struct {
	Name         string  `json:"name"`
	BaseNsOp     float64 `json:"baseNsOp"`
	HeadNsOp     float64 `json:"headNsOp"`
	Delta        float64 `json:"delta"`
	HasAllocs    bool    `json:"hasAllocs,omitempty"`
	BaseAllocsOp float64 `json:"baseAllocsOp,omitempty"`
	HeadAllocsOp float64 `json:"headAllocsOp,omitempty"`
	AllocsDelta  float64 `json:"allocsDelta,omitempty"`
	Gated        bool    `json:"gated"`
	Regression   bool    `json:"regression"`
	// OnlyIn marks benchmarks present on a single side ("base"/"head");
	// they never gate.
	OnlyIn string `json:"onlyIn,omitempty"`
}

// Samples holds one benchmark's repetition values from one run.
type Samples struct {
	NsOp     []float64
	AllocsOp []float64
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseBench extracts ns/op and allocs/op samples per benchmark name from
// `go test -bench -benchmem` output. The trailing -GOMAXPROCS suffix is
// stripped so runs from differently sized machines still line up.
func ParseBench(r io.Reader) (map[string]*Samples, error) {
	out := make(map[string]*Samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Benchmark lines read: Name-P  iterations  value ns/op  [more pairs].
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		s := out[name]
		if s == nil {
			s = &Samples{}
			out[name] = s
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q for %s", fields[i], name)
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsOp = append(s.NsOp, v)
			case "allocs/op":
				s.AllocsOp = append(s.AllocsOp, v)
			}
		}
	}
	return out, sc.Err()
}

func parseFile(path string) (map[string]*Samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := ParseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return samples, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checkGate refuses a gate that matches no benchmark of the head run.
// Such a gate passes every comparison while gating nothing, as a
// right-anchored regexp did against benchmarks that only emit
// sub-benchmark lines.
func checkGate(gate *regexp.Regexp, head map[string]*Samples) error {
	for name := range head {
		if gate.MatchString(name) {
			return nil
		}
	}
	return fmt.Errorf("-gate %q matches none of the head run's %d benchmarks, so it would gate nothing", gate, len(head))
}

// Compare builds the gate report from two parsed runs. A gated benchmark
// regresses when its median ns/op worsens beyond threshold, or — when
// both runs report allocations — its median allocs/op worsens beyond
// allocsThreshold.
func Compare(base, head map[string]*Samples, gate *regexp.Regexp, threshold, allocsThreshold float64) *Report {
	names := make(map[string]bool, len(base)+len(head))
	for n := range base {
		names[n] = true
	}
	for n := range head {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	report := &Report{Gate: gate.String(), Threshold: threshold, AllocsThreshold: allocsThreshold}
	for _, name := range ordered {
		res := Result{Name: name, Gated: gate.MatchString(name)}
		bs, inBase := base[name]
		hs, inHead := head[name]
		switch {
		case inBase && inHead:
			res.BaseNsOp = median(bs.NsOp)
			res.HeadNsOp = median(hs.NsOp)
			if res.BaseNsOp > 0 {
				res.Delta = (res.HeadNsOp - res.BaseNsOp) / res.BaseNsOp
			}
			res.Regression = res.Gated && res.Delta > threshold
			if len(bs.AllocsOp) > 0 && len(hs.AllocsOp) > 0 {
				res.HasAllocs = true
				res.BaseAllocsOp = median(bs.AllocsOp)
				res.HeadAllocsOp = median(hs.AllocsOp)
				if res.BaseAllocsOp > 0 {
					res.AllocsDelta = (res.HeadAllocsOp - res.BaseAllocsOp) / res.BaseAllocsOp
				}
				if res.Gated && res.AllocsDelta > allocsThreshold {
					res.Regression = true
				}
			}
		case inBase:
			res.BaseNsOp = median(bs.NsOp)
			res.OnlyIn = "base"
		default:
			res.HeadNsOp = median(hs.NsOp)
			res.OnlyIn = "head"
		}
		if res.Regression {
			report.Regressions = append(report.Regressions, name)
		}
		report.Results = append(report.Results, res)
	}
	return report
}

// loadDoc is the slice of a netembedload LOAD_*.json report the gate
// reads (schemas "netembedload/1" through "netembedload/3" — the /2
// bump only added the optimize op to the mix and /3 only added the
// per-shard routing counts of federated runs; the gated fields are
// unchanged, so old baselines stay comparable).
type loadDoc struct {
	Schema  string `json:"schema"`
	Overall struct {
		Count  uint64 `json:"count"`
		Errors uint64 `json:"errors"`
		P50Ns  uint64 `json:"p50Ns"`
		P99Ns  uint64 `json:"p99Ns"`
	} `json:"overall"`
	Server struct {
		AllocsPerRequest float64 `json:"allocsPerRequest"`
	} `json:"server"`
}

// LoadReport is the load-mode comparison artifact.
type LoadReport struct {
	BaseP99Ns        float64  `json:"baseP99Ns"`
	HeadP99Ns        float64  `json:"headP99Ns"`
	P99Delta         float64  `json:"p99Delta"`
	P99Threshold     float64  `json:"p99Threshold"`
	BaseAllocsPerReq float64  `json:"baseAllocsPerRequest"`
	HeadAllocsPerReq float64  `json:"headAllocsPerRequest"`
	AllocsDelta      float64  `json:"allocsDelta"`
	AllocsThreshold  float64  `json:"allocsThreshold"`
	Failures         []string `json:"failures"`
}

// CompareLoad gates a head load report against the base: overall p99
// latency and server allocations per completed request. minP99Ns mutes
// the latency gate when both sides sit below a noise floor.
func CompareLoad(base, head loadDoc, p99Threshold, allocsThreshold, minP99Ns float64) *LoadReport {
	rep := &LoadReport{
		BaseP99Ns:        float64(base.Overall.P99Ns),
		HeadP99Ns:        float64(head.Overall.P99Ns),
		P99Threshold:     p99Threshold,
		BaseAllocsPerReq: base.Server.AllocsPerRequest,
		HeadAllocsPerReq: head.Server.AllocsPerRequest,
		AllocsThreshold:  allocsThreshold,
	}
	if rep.BaseP99Ns > 0 {
		rep.P99Delta = (rep.HeadP99Ns - rep.BaseP99Ns) / rep.BaseP99Ns
	}
	if rep.BaseAllocsPerReq > 0 {
		rep.AllocsDelta = (rep.HeadAllocsPerReq - rep.BaseAllocsPerReq) / rep.BaseAllocsPerReq
	}
	if head.Overall.Count == 0 {
		rep.Failures = append(rep.Failures, "head run completed no requests")
	}
	aboveFloor := rep.BaseP99Ns >= minP99Ns || rep.HeadP99Ns >= minP99Ns
	if rep.BaseP99Ns > 0 && aboveFloor && rep.P99Delta > p99Threshold {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("overall p99 regressed %.1f%% (%.2fms -> %.2fms, threshold %.0f%%)",
				rep.P99Delta*100, rep.BaseP99Ns/1e6, rep.HeadP99Ns/1e6, p99Threshold*100))
	}
	if rep.BaseAllocsPerReq > 0 && rep.AllocsDelta > allocsThreshold {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("server allocs/request regressed %.1f%% (%.0f -> %.0f, threshold %.0f%%)",
				rep.AllocsDelta*100, rep.BaseAllocsPerReq, rep.HeadAllocsPerReq, allocsThreshold*100))
	}
	return rep
}

func readLoadDoc(path string) (loadDoc, error) {
	var doc loadDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	switch doc.Schema {
	case "netembedload/1", "netembedload/2", "netembedload/3":
	default:
		return doc, fmt.Errorf("%s: unexpected schema %q", path, doc.Schema)
	}
	return doc, nil
}

func runLoadMode(basePath, headPath, outPath string, p99Thr, allocsThr, minP99Ns float64) {
	base, err := readLoadDoc(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	head, err := readLoadDoc(headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	rep := CompareLoad(base, head, p99Thr, allocsThr, minP99Ns)
	writeOut(outPath, rep)
	fmt.Printf("load p99: %.2fms -> %.2fms (%+.1f%%, threshold %.0f%%)\n",
		rep.BaseP99Ns/1e6, rep.HeadP99Ns/1e6, rep.P99Delta*100, p99Thr*100)
	fmt.Printf("load allocs/request: %.0f -> %.0f (%+.1f%%, threshold %.0f%%)\n",
		rep.BaseAllocsPerReq, rep.HeadAllocsPerReq, rep.AllocsDelta*100, allocsThr*100)
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "benchgate: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: load gate passed")
}
