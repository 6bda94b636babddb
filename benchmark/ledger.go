package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// spec is BENCHMARK.json: the contract between this program, the driver
// that runs it, and every later PR that cites one of its metrics.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// program runs from there (the driver) or from this directory (go test).
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// ledgerFile is one full invocation: both passes of every workload plus
// where and on what it was measured.
type ledgerFile struct {
	Schema      string                   `json:"schema"`
	Seed        int64                    `json:"seed"`
	Seconds     float64                  `json:"seconds"`
	Commit      string                   `json:"commit"`
	NProc       int                      `json:"nproc"`
	GOMAXPROCS  int                      `json:"gomaxprocs"`
	GoVersion   string                   `json:"go_version"`
	CPU         string                   `json:"cpu"`
	Calibration float64                  `json:"calibration_ns_per_kword"`
	Workloads   map[string]*ledgerRecord `json:"workloads"`
}

type ledgerRecord struct {
	EndToEnd *result `json:"end_to_end"`
	// Samples holds what each end-to-end median was taken over (the
	// three windows; the set-up repeats), which is what -compare reads a
	// run's own spread from.
	Samples  map[string][]float64 `json:"samples"`
	PerLayer *result              `json:"per_layer"`
}

const ledgerSchema = "netembed-benchmark/1"

// runAll is the full ledger: for every workload the untraced pass, then
// the traced pass.
func runAll(seed int64, seconds float64, out string) error {
	file := &ledgerFile{
		Schema: ledgerSchema, Seed: seed, Seconds: seconds, Commit: gitCommit(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Calibration: calibrationKernel(),
		Workloads: map[string]*ledgerRecord{},
	}
	fmt.Printf("calibration sets.and_popcount_ns_per_kword %.6g ns (%s, %d cpus)\n", file.Calibration, file.CPU, file.NProc)
	for _, w := range workloads {
		e2e, err := runUntraced(w, seed, seconds, fullScale)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printMetrics(w.name, e2e)
		layers, err := runTraced(w, seed, seconds, fullScale)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		printMetrics(w.name, layers)
		fmt.Printf("%s correct=%v attempted=%d failed=%d\n", w.name, e2e.Correct && layers.Correct, e2e.Attempted, e2e.Failed+layers.Failed)
		file.Workloads[w.name] = &ledgerRecord{EndToEnd: e2e, Samples: e2e.samples, PerLayer: layers}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledgerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ledgerFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, ledgerSchema)
	}
	return &f, nil
}

// spread is a sample set's interquartile range as a share of its median,
// with the quartiles Python's statistics.quantiles(v, n=4) gives — the
// same figure the driver computes over its runs, here over one run's
// windows.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based, exclusive method
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return ratio(quartile(3)-quartile(1), math.Abs(quartile(2)))
}

// allBetter reports whether every b sample beats every a sample.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	as, bs := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	if lowerIsBetter {
		return bs[len(bs)-1] < as[0]
	}
	return bs[0] > as[len(as)-1]
}

// compareFiles applies BENCHMARK.json's bounds to two ledger files, A the
// base and B the candidate, and prints one row per workload and
// end-to-end metric with the ratio and its base. A metric worse by more
// than its bound is a REGRESSION; one whose own window-to-window spread
// exceeds the bound is `unresolved` (choosing-metrics §6.5), unless every
// B sample sits on one side of every A sample. Returns the exit code.
func compareFiles(pathA, pathB string, w io.Writer) int {
	sp, err := loadSpec()
	var a, b *ledgerFile
	if err == nil {
		a, err = readLedger(pathA)
	}
	if err == nil {
		b, err = readLedger(pathB)
	}
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	fmt.Fprintf(w, "A %s seed %d commit %s calibration %.4g ns/kword (%s)\n", pathA, a.Seed, a.Commit, a.Calibration, a.CPU)
	fmt.Fprintf(w, "B %s seed %d commit %s calibration %.4g ns/kword (%s)\n", pathB, b.Seed, b.Commit, b.Calibration, b.CPU)
	regressions := 0
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%-18s missing from one file: REGRESSION\n", wl.Name)
			regressions++
			continue
		}
		fmt.Fprintf(w, "\n%s  (A: %d attempted, %d failed; B: %d attempted, %d failed)\n",
			wl.Name, ra.EndToEnd.Attempted, ra.EndToEnd.Failed, rb.EndToEnd.Attempted, rb.EndToEnd.Failed)
		if !rb.EndToEnd.Correct || rb.EndToEnd.Failed > ra.EndToEnd.Failed {
			fmt.Fprintf(w, "  B fails more operations than A: REGRESSION\n")
			regressions++
		}
		fmt.Fprintf(w, "  %-16s %14s %14s %9s %7s %8s  %s\n", "metric", "A (base)", "B", "B/A", "bound", "spread", "verdict")
		for _, m := range sp.EndToEnd {
			va, vb := ra.EndToEnd.Metrics[m.Name].Value, rb.EndToEnd.Metrics[m.Name].Value
			lower := m.Better == "lower"
			worse := ratio(vb-va, math.Abs(va))
			if !lower {
				worse = -worse
			}
			sa, sb := ra.Samples[m.Name], rb.Samples[m.Name]
			sprd := math.Max(spread(sa), spread(sb))
			verdict := "ok"
			switch {
			case sprd > m.Bound && allBetter(sa, sb, lower):
				verdict = "better"
			case sprd > m.Bound && worse > m.Bound && allBetter(sb, sa, lower):
				verdict = "REGRESSION"
			case sprd > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
			}
			if verdict == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "  %-16s %14.6g %14.6g %9.4f %6.1f%% %7.1f%%  %s\n",
				m.Name, va, vb, ratio(vb, va), 100*m.Bound, 100*sprd, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "\nno regression")
	return 0
}
