package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"netembed/internal/core"
	"netembed/internal/engine"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// graphDiff describes the first difference between two graphs, "" when
// there is none: orientation, node names and IDs, attribute bags down to
// the bits of each number, edge IDs and endpoints, and adjacency order.
func graphDiff(a, b *graph.Graph) string {
	if a.Directed() != b.Directed() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("shape %v vs %v", a, b)
	}
	bags := func(x, y graph.Attrs) string {
		if len(x) != len(y) {
			return fmt.Sprintf("bags %v vs %v", x, y)
		}
		for name, vx := range x {
			vy, ok := y[name]
			fx, _ := vx.Float()
			fy, _ := vy.Float()
			sx, _ := vx.Text()
			sy, _ := vy.Text()
			if !ok || vx.Kind() != vy.Kind() || math.Float64bits(fx) != math.Float64bits(fy) || sx != sy {
				return fmt.Sprintf("%q = %v vs %v", name, vx, vy)
			}
		}
		return ""
	}
	for u := graph.NodeID(0); int(u) < a.NumNodes(); u++ {
		na, nb := a.Node(u), b.Node(u)
		if na.Name != nb.Name {
			return fmt.Sprintf("node %d named %q vs %q", u, na.Name, nb.Name)
		}
		if d := bags(na.Attrs, nb.Attrs); d != "" {
			return fmt.Sprintf("node %q: %s", na.Name, d)
		}
		if fmt.Sprint(a.Arcs(u), a.InArcs(u)) != fmt.Sprint(b.Arcs(u), b.InArcs(u)) {
			return fmt.Sprintf("node %q adjacency %v/%v vs %v/%v", na.Name, a.Arcs(u), a.InArcs(u), b.Arcs(u), b.InArcs(u))
		}
	}
	for e := graph.EdgeID(0); int(e) < a.NumEdges(); e++ {
		ea, eb := a.Edge(e), b.Edge(e)
		if ea.From != eb.From || ea.To != eb.To {
			return fmt.Sprintf("edge %d joins %d-%d vs %d-%d", e, ea.From, ea.To, eb.From, eb.To)
		}
		if d := bags(ea.Attrs, eb.Attrs); d != "" {
			return fmt.Sprintf("edge %d: %s", e, d)
		}
	}
	return ""
}

// TestQueryCacheHitsMatchFreshDecode: 64 query documents share their key
// header and their length and differ only in the one-digit cpu each node
// demands, so a decode LRU keyed by less than the full text, or decoded
// graphs that share storage, would hand one request another's query. Four
// goroutines send them over and over while attribute deltas move the
// model's version, so — as on the churn_mixed workload — every read misses
// the result cache and searches a graph the LRU shares again. Every reply
// must verify against its own query and the host at its model version, and
// every graph the LRU hands out must equal a fresh decode of its text.
func TestQueryCacheHitsMatchFreshDecode(t *testing.T) {
	const (
		bodies  = 64
		readers = 4
		rounds  = 3
		nodeSrc = "rNode.cpu >= vNode.cpu"
	)
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(1)))
	base, _, err := topo.Subgraph(host, 6, 8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	texts := make([]string, bodies)
	reqs := make([][]byte, bodies)
	for i := range texts {
		q := base.Clone()
		for u := graph.NodeID(0); int(u) < q.NumNodes(); u++ {
			q.Node(u).Attrs = q.Node(u).Attrs.SetNum("cpu", float64(1+rng.Intn(8)))
		}
		if texts[i], err = graphml.EncodeString(q); err != nil {
			t.Fatal(err)
		}
		if len(texts[i]) != len(texts[0]) || texts[i][:200] != texts[0][:200] {
			t.Fatalf("document %d does not share the first one's length and key header", i)
		}
		if reqs[i], err = json.Marshal(EmbedRequest{QueryGraphML: texts[i], NodeConstraint: nodeSrc, Algorithm: "ecf", MaxResults: 4}); err != nil {
			t.Fatal(err)
		}
	}

	svc := service.New(service.NewModel(host), service.Config{})
	eng := engine.New(svc, engine.Config{Workers: 2, QueueDepth: 64, CacheCapacity: 64})
	t.Cleanup(func() { eng.Close(context.Background()) })
	api := NewWithEngine(svc, eng)

	var mu sync.Mutex
	hosts := map[uint64]*graph.Graph{peek(svc).Version(): peek(svc).Host()}
	type reply struct {
		body int
		resp EmbedResponse
	}
	replies := make([][]reply, readers)
	done := make(chan struct{})
	var deltas sync.WaitGroup
	deltas.Add(1)
	go func() { // the only writer: each version's host is the snapshot after its delta
		defer deltas.Done()
		drng := rand.New(rand.NewSource(4))
		for {
			select {
			case <-done:
				return
			default:
			}
			name := host.Node(graph.NodeID(drng.Intn(host.NumNodes()))).Name
			body := fmt.Sprintf(`{"setNodeAttrs":[{"node":%q,"attrs":{"cpu":%d}}]}`, name, 1+drng.Intn(8))
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest("POST", "/deltas", bytes.NewReader([]byte(body))))
			var dr DeltaResponse
			if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &dr) != nil {
				t.Errorf("delta: status %d: %s", rec.Code, rec.Body.String())
				return
			}
			snap := peek(svc)
			if snap.Version() != dr.Version {
				t.Errorf("delta published version %d, the model reads %d", dr.Version, snap.Version())
				return
			}
			mu.Lock()
			hosts[dr.Version] = snap.Host()
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < rounds*bodies; k++ {
				i := (k*readers + r*17) % bodies
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest("POST", "/embed", bytes.NewReader(reqs[i])))
				var resp EmbedResponse
				if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("embed %d: status %d: %s", i, rec.Code, rec.Body.String())
					return
				}
				replies[r] = append(replies[r], reply{i, resp})
				g, err := api.queries.decode(texts[i])
				if err != nil {
					t.Error(err)
					return
				}
				fresh, err := graphml.DecodeString(texts[i])
				if err != nil {
					t.Error(err)
					return
				}
				if d := graphDiff(g, fresh); d != "" {
					t.Errorf("body %d: the LRU's graph differs from a fresh decode: %s", i, d)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	deltas.Wait()

	prog := expr.MustCompile(nodeSrc)
	checked, versions := 0, map[uint64]bool{}
	for _, rs := range replies {
		for _, rp := range rs {
			h := hosts[rp.resp.ModelVersion]
			if h == nil {
				t.Fatalf("body %d answered at version %d, which no delta published", rp.body, rp.resp.ModelVersion)
			}
			versions[rp.resp.ModelVersion] = true
			q, err := graphml.DecodeString(texts[rp.body])
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewProblem(q, h, nil, prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, named := range rp.resp.Mappings {
				m := make(core.Mapping, q.NumNodes())
				for u := range m {
					id, ok := h.NodeByName(named[q.Node(graph.NodeID(u)).Name])
					if !ok {
						t.Fatalf("body %d: mapping %v names an unknown host", rp.body, named)
					}
					m[u] = id
				}
				if err := p.Verify(m); err != nil {
					t.Errorf("body %d at version %d: mapping %v: %v", rp.body, rp.resp.ModelVersion, named, err)
				}
				checked++
			}
		}
	}
	hits, misses, _ := api.queries.stats()
	t.Logf("%d mappings verified over %d model versions; query LRU %d hits, %d misses", checked, len(versions), hits, misses)
	if checked == 0 || len(versions) < 2 || hits == 0 {
		t.Errorf("%d mappings over %d versions with %d LRU hits: the test exercised nothing", checked, len(versions), hits)
	}
}
