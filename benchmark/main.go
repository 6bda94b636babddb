// Command benchmark is the repository's end-to-end performance ledger. It
// builds, in its own process, the stack cmd/netembedd builds with default
// flags behind a real loopback HTTP server, drives it closed-loop with
// one of five workloads generated from -seed, checks every answer against
// its own copy of the hosting network, and reports seven end-to-end
// metrics (-trace 0) or the per-layer metrics of a separate traced pass
// (-trace 1). BENCHMARK.json at the repository root names the workloads,
// metrics and bounds; README.md in this directory is the glossary.
//
//	benchmark -workload novel_constrained -seed 1 -seconds 20 -trace 0
//	benchmark -workload all -seed 1 -out results/run.json
//	benchmark -compare A.json B.json
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} for the single-workload
// forms. It claims no gain: nothing outside this directory changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or 'all' for the full ledger (both passes of every workload)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 20, "measured run length per pass, warm-up included")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics from the untraced pass, 1 = per-layer metrics from the traced pass")
		out     = flag.String("out", "", "with -workload all: write the result file here")
		compare = flag.Bool("compare", false, "compare two result files (A.json B.json) under BENCHMARK.json's bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *out); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	run := runUntraced
	if *traced != 0 {
		run = runTraced
	}
	res, err := run(w, *seed, *seconds, fullScale)
	if err != nil {
		fatal(err)
	}
	printMetrics(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printMetrics prints one `workload metric value unit` line per metric.
func printMetrics(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", workload, name, m.Value, m.Unit)
	}
}
