package service

import (
	"math/rand"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// BenchmarkCutTables builds the cut tables of planted, region-spanning
// 4-node queries under the paper's delay-window constraint over the
// boundary view of the 6-region, 296-site federation: one op is one
// request's tables, one per query edge whose planted endpoints lie in two
// regions, released to the view's pool when the request ends. The view's
// range indexes are armed before the timer starts, as after a daemon's
// first spanning request.
func BenchmarkCutTables(b *testing.B) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 296}, rand.New(rand.NewSource(1)))
	routes := map[string]string{}
	for i := 0; i < host.NumNodes(); i++ {
		node := host.Node(graph.NodeID(i))
		routes[node.Name], _ = node.Attrs.Text("region")
	}
	part, err := graph.PartitionByAttr(host, "region", "unassigned", nil)
	if err != nil {
		b.Fatal(err)
	}
	bv := newBoundaryView(part.Cuts, host.Directed(), routes)
	prog := expr.MustCompile("rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay")

	type spanning struct {
		q    *graph.Graph
		cuts []graph.EdgeID
	}
	rng := rand.New(rand.NewSource(2))
	var queries []spanning
	for len(queries) < 32 {
		q, plant, err := topo.Subgraph(host, 4, 4, rng)
		if err != nil {
			b.Fatal(err)
		}
		topo.WidenDelayWindows(q, 0.1)
		var cuts []graph.EdgeID
		for e := 0; e < q.NumEdges(); e++ {
			qe := q.Edge(graph.EdgeID(e))
			if routes[host.Node(plant[qe.From]).Name] != routes[host.Node(plant[qe.To]).Name] {
				cuts = append(cuts, graph.EdgeID(e))
			}
		}
		if len(cuts) > 0 {
			queries = append(queries, spanning{q, cuts})
		}
	}
	build := func(s spanning) {
		j := &spanJoin{bv: bv, req: Request{Query: s.q}, edgeProg: prog}
		j.prepare()
		for _, e := range s.cuts {
			j.table(e)
		}
		j.release()
	}
	build(queries[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(queries[i%len(queries)])
	}
}
