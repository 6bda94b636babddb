package core

import (
	"math/rand"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/index"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// BenchmarkBuildFilters measures the filter build (§V-A) alone on the
// 296-site host (≈29k edges) of the ledger's constrained workloads,
// index-served and warm — columns built, and their range indexes armed,
// by a first pass over the queries, as on a daemon that has served a
// request — and releases every Filters the way the searches do, so the
// figures are those of the pooled path production runs. Each op builds
// the next of 64 planted 8-node/12-edge queries' filters:
//   - planetlab296_window: novel_constrained's ±10% delay windows, where
//     the edge constraint is evaluated straight into each query edge's
//     mask-adjacency from the arc-slot range indexes;
//   - planetlab296_index: churn_mixed's read constraint, node attributes
//     only, so the tables alias the index's adjacency and the build is
//     node passes, row pointers and per-table unions.
func BenchmarkBuildFilters(b *testing.B) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 296}, rand.New(rand.NewSource(1)))
	idx := index.Build(host, 1, index.Config{})
	for _, c := range []struct {
		name       string
		edge, node *expr.Program
		window     bool
	}{
		{"planetlab296_window", delayWindow, nil, true},
		{"planetlab296_index", nil, expr.MustCompile("rNode.cpu >= vNode.cpu && rNode.osType == vNode.osType"), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			problems := make([]*Problem, 64)
			for i := range problems {
				q, _, err := topo.Subgraph(host, 8, 12, rng)
				if err != nil {
					b.Fatal(err)
				}
				if c.window {
					topo.WidenDelayWindows(q, 0.1)
				}
				if problems[i], err = NewProblem(q, host, c.edge, c.node); err != nil {
					b.Fatal(err)
				}
			}
			opt := &Options{Index: idx}
			for _, p := range problems {
				BuildFilters(p, opt).release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := BuildFilters(problems[i%len(problems)], opt)
				if f.stats.FilterEntries == 0 {
					b.Fatal("planted query has no candidates")
				}
				f.release()
			}
		})
	}
}
