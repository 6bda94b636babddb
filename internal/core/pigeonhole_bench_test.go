package core

import (
	"testing"
	"time"

	"netembed/internal/topo"
)

// BenchmarkPigeonholeArmedVsFCOnly prices propagation where it cannot
// help: topo.Pigeonhole(8) is arc consistent at every node of the tree,
// so once armed every fixpoint runs to the end and deletes nothing. Each
// iteration runs the search with propagation switched off (a threshold
// no search reaches) and at the shipped threshold, back to back so that
// machine noise hits both, and the benchmark fails when the armed search
// visits more nodes or takes more than 3× the time — the bound within
// which failure-armed propagation was accepted (measured ≈1.3×: 101,536
// nodes against 109,600).
func BenchmarkPigeonholeArmedVsFCOnly(b *testing.B) {
	q, host := topo.Pigeonhole(8)
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{}
	f := BuildFilters(p, &opt)
	run := func(armAfter int64) (elapsed time.Duration, nodes int64) {
		withArmAfter(armAfter, func() {
			start := time.Now()
			res := ECFWithFilters(f, opt)
			elapsed, nodes = time.Since(start), res.Stats.NodesVisited
			if len(res.Solutions) != 0 || res.Status != StatusComplete {
				b.Fatalf("pigeonhole matched: %d solutions, status %v", len(res.Solutions), res.Status)
			}
		})
		return elapsed, nodes
	}
	var fcOnly, armed time.Duration
	var fcNodes, armedNodes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, n := run(1 << 40)
		fcOnly, fcNodes = fcOnly+d, n
		d, n = run(acArmWipeouts)
		armed, armedNodes = armed+d, n
	}
	ratio := float64(armed) / float64(fcOnly)
	b.ReportMetric(ratio, "armed/fc-only")
	b.ReportMetric(float64(fcNodes), "fc-only-nodes")
	b.ReportMetric(float64(armedNodes), "armed-nodes")
	if armedNodes > fcNodes {
		b.Fatalf("armed search visited %d nodes, forward checking alone %d", armedNodes, fcNodes)
	}
	if ratio > 3 {
		b.Fatalf("armed search took %.2f× the forward-checking-only time (%v vs %v per run), bound 3×",
			ratio, armed/time.Duration(b.N), fcOnly/time.Duration(b.N))
	}
}
