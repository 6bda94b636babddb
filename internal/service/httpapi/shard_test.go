package httpapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

const avgDelayWindowSrc = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

// twoRegionHost builds the canonical distributed-tier fixture: two 5-node
// cliques (west: n0..n4, east: n5..n9) at ~10ms intra-region, joined by
// two ~200ms cut edges n0-n5 and n1-n6.
func twoRegionHost() *graph.Graph {
	g := graph.NewUndirected()
	attrs := func(d float64) graph.Attrs {
		return graph.Attrs{}.
			SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.1)
	}
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", "west"))
	}
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.Attrs{}.SetStr("region", "east"))
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			g.MustAddEdge(graph.NodeID(a), graph.NodeID(b), attrs(10))
			g.MustAddEdge(graph.NodeID(5+a), graph.NodeID(5+b), attrs(10))
		}
	}
	g.MustAddEdge(0, 5, attrs(200))
	g.MustAddEdge(1, 6, attrs(200))
	return g
}

func TestShardPeerEndpoints(t *testing.T) {
	host := twoRegionHost()
	svc := service.New(service.NewModel(host), service.Config{})
	srv := New(svc)
	srv.ConfigureShard("west", []string{"west"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var st service.ShardStats
	resp, err := http.Get(ts.URL + "/internal/shard/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Name != "west" || st.NodeCount != 10 || st.MaxDegree < 5 {
		t.Errorf("stats = %+v", st)
	}

	var nodes ShardNodesResponse
	resp, err = http.Get(ts.URL + "/internal/shard/nodes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes.Names) != 10 || nodes.Version != 1 {
		t.Errorf("nodes = %d names v%d", len(nodes.Names), nodes.Version)
	}

	// A delta naming an unknown node is the 409 stale class on the peer
	// protocol, exactly like the public /deltas.
	resp, _ = postJSON(t, ts.URL+"/internal/shard/delta", DeltaRequest{
		RemoveNodes: []string{"ghost"},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale delta answered %d, want 409", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/internal/shard/delta", DeltaRequest{
		SetNodeAttrs: []DeltaNodeAttrs{{Node: "n0", Attrs: map[string]any{"cpu": 8.0}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta answered %d: %s", resp.StatusCode, body)
	}

	var ver map[string]uint64
	resp, err = http.Get(ts.URL + "/internal/shard/version")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ver["version"] != 2 {
		t.Errorf("version = %d, want 2 after one delta", ver["version"])
	}
}

// remoteTier partitions the host by region and boots one real HTTP shard
// server per part, returning a coordinator over RemoteShard clients.
func remoteTier(t *testing.T, host *graph.Graph) *service.Coordinator {
	t.Helper()
	part, err := graph.PartitionByAttr(host, "region", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 0, len(part.Parts))
	for label := range part.Parts {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	shards := make([]service.Shard, 0, len(labels))
	for _, label := range labels {
		svc := service.New(service.NewModel(part.Parts[label]), service.Config{})
		srv := New(svc)
		srv.ConfigureShard(label, []string{label})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		rs, err := NewRemoteShard(ts.URL, RemoteShardConfig{Name: label, Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, rs)
	}
	coord, err := service.NewCoordinator(shards, service.CoordinatorConfig{
		RegionAttr: "region",
		Boundary:   part.Cuts,
		Directed:   host.Directed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestRemoteShardStatsMatchLocal: one request through a coordinator over
// a LocalShard and through one over a RemoteShard on the same host must
// report the same search counters — every int64 field of core.Stats
// crosses the wire.
func TestRemoteShardStatsMatchLocal(t *testing.T) {
	host := twoRegionHost()
	regions := []string{"east", "west"}
	coordinator := func(sh service.Shard) *service.Coordinator {
		t.Helper()
		c, err := service.NewCoordinator([]service.Shard{sh}, service.CoordinatorConfig{RegionAttr: "region"})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	local := coordinator(service.NewLocalShard("all", regions, service.New(service.NewModel(host), service.Config{})))
	srv := New(service.New(service.NewModel(host), service.Config{}))
	srv.ConfigureShard("all", regions)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rs, err := NewRemoteShard(ts.URL, RemoteShardConfig{Name: "all", Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	remote := coordinator(rs)

	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 20)
	req := service.Request{Query: q, EdgeConstraint: avgDelayWindowSrc, Timeout: 10 * time.Second}
	lresp, _, err := local.Embed(req)
	if err != nil {
		t.Fatal(err)
	}
	rresp, _, err := remote.Embed(req)
	if err != nil {
		t.Fatal(err)
	}
	if lresp.Stats.FilterEntries == 0 || lresp.Stats.NodesVisited == 0 {
		t.Fatalf("fixture exercises no filters or search: %+v", lresp.Stats)
	}
	lv, rv := reflect.ValueOf(lresp.Stats), reflect.ValueOf(rresp.Stats)
	counter := reflect.TypeOf(int64(0))
	for i := 0; i < lv.NumField(); i++ {
		if f := lv.Type().Field(i); f.Type == counter && lv.Field(i).Int() != rv.Field(i).Int() {
			t.Errorf("%s: local %d, remote %d", f.Name, lv.Field(i).Int(), rv.Field(i).Int())
		}
	}
}

// TestCoordinatorEquivalence is the distributed tier's acceptance
// property: on a partitioned host, the coordinator over LocalShards and
// the coordinator over loopback-HTTP RemoteShards both find a mapping iff
// the single-process global Service does — including a query whose only
// solutions span a cut edge — and region-local queries get identical
// named mappings from both tiers.
func TestCoordinatorEquivalence(t *testing.T) {
	host := twoRegionHost()
	global := service.New(service.NewModel(host), service.Config{})
	local, err := service.NewFederation(host, "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	remote := remoteTier(t, host)

	cases := []struct {
		name     string
		lo, hi   float64
		queryGen func() *graph.Graph
		spanning bool
	}{
		{"region-local triangle", 5, 20, func() *graph.Graph { return topo.Clique(3) }, false},
		{"cut-spanning pair", 150, 250, func() *graph.Graph { return topo.Line(2) }, true},
		{"infeasible window", 300, 400, func() *graph.Graph { return topo.Line(2) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.queryGen()
			topo.SetDelayWindow(q, tc.lo, tc.hi)
			req := service.Request{
				Query:          q,
				EdgeConstraint: avgDelayWindowSrc,
				MaxResults:     1,
				Timeout:        10 * time.Second,
			}
			gresp, err := global.Embed(req)
			if err != nil {
				t.Fatal(err)
			}
			globalFound := len(gresp.Named) > 0

			lresp, lwhere, err := local.Embed(req)
			if err != nil {
				t.Fatal(err)
			}
			rresp, rwhere, err := remote.Embed(req)
			if err != nil {
				t.Fatal(err)
			}
			if found := len(lresp.Named) > 0; found != globalFound {
				t.Errorf("local tier found=%v, global found=%v", found, globalFound)
			}
			if found := len(rresp.Named) > 0; found != globalFound {
				t.Errorf("remote tier found=%v, global found=%v", found, globalFound)
			}
			if tc.spanning && globalFound {
				if !strings.HasPrefix(lwhere, "cross:") || !strings.HasPrefix(rwhere, "cross:") {
					t.Errorf("spanning query answered by %q / %q, want cross:*", lwhere, rwhere)
				}
			}
			if !tc.spanning && globalFound {
				// Region-local answers must be identical across the tiers:
				// same shard, same named mapping.
				if lwhere != rwhere {
					t.Errorf("answered by %q locally, %q remotely", lwhere, rwhere)
				}
				if len(lresp.Named) != len(rresp.Named) {
					t.Fatalf("local %d mappings, remote %d", len(lresp.Named), len(rresp.Named))
				}
				for qName, rName := range lresp.Named[0] {
					if rresp.Named[0][qName] != rName {
						t.Errorf("named mapping diverges at %q: local %q, remote %q",
							qName, rName, rresp.Named[0][qName])
					}
				}
			}
			// Every found mapping must verify edge-by-edge on the global
			// host via names.
			for _, resp := range []*service.Response{lresp, rresp} {
				if len(resp.Named) == 0 {
					continue
				}
				assertNamedValid(t, q, host, resp.Named[0])
			}
		})
	}
}

// regionOf reads a node's region label.
func regionOf(g *graph.Graph, id graph.NodeID) string {
	label, _ := g.Node(id).Attrs.Text("region")
	return label
}

// pinnedAllow is the spanning oracle's domain restriction: every query
// node may take exactly the hosts of the region its label pins.
func pinnedAllow(q, host *graph.Graph) map[string][]string {
	allow := make(map[string][]string, q.NumNodes())
	for i := 0; i < q.NumNodes(); i++ {
		hosts := []string{}
		for h := 0; h < host.NumNodes(); h++ {
			if regionOf(host, graph.NodeID(h)) == regionOf(q, graph.NodeID(i)) {
				hosts = append(hosts, host.Node(graph.NodeID(h)).Name)
			}
		}
		allow[q.Node(graph.NodeID(i)).Name] = hosts
	}
	return allow
}

// TestCoordinatorSpanningEquivalence is the boundary join's acceptance
// property, over LocalShards and loopback-HTTP RemoteShards alike: for
// seeded 4- and 6-node queries planted across 2, 3 and 4 of the host's
// regions — and for copies with one node re-pinned to another region,
// most of which no longer fit — the coordinator answers by decomposition
// iff ECF on the undivided host answers under Allow = "the hosts of the
// region each node pins". The allow-set seam is its own oracle. Every
// mapping returned verifies on the undivided host, no request ends on the
// deadline, and an answered one costs at most fragments + 1 round trips
// on average (a count: the same on every machine).
func TestCoordinatorSpanningEquivalence(t *testing.T) {
	const window = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 90}, rand.New(rand.NewSource(5)))
	global := service.New(service.NewModel(host), service.Config{})
	local, err := service.NewFederation(host, "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(local.Shards()); n < 4 {
		t.Fatalf("host has %d regions, want at least 4", n)
	}
	tiers := []struct {
		name  string
		coord *service.Coordinator
	}{{"local", local}, {"remote", remoteTier(t, host)}}
	prog := expr.MustCompile(window)

	// The fixture: per (size, span) a few planted queries, each followed
	// by a re-pinned copy.
	rng := rand.New(rand.NewSource(11))
	regions := local.Shards()
	var queries []*graph.Graph
	for _, size := range []int{4, 6} {
		for span := 2; span <= 4; span++ {
			for found := 0; found < 3; {
				q, plant, err := topo.Subgraph(host, size, size+1, rng)
				if err != nil {
					t.Fatal(err)
				}
				spanned := map[string]bool{}
				for _, h := range plant {
					spanned[regionOf(host, h)] = true
				}
				if len(spanned) != span {
					continue
				}
				found++
				topo.WidenDelayWindows(q, 0.1)
				moved := q.Clone()
				victim := graph.NodeID(rng.Intn(size))
				for {
					if to := regions[rng.Intn(len(regions))]; to != regionOf(moved, victim) {
						moved.Node(victim).Attrs = moved.Node(victim).Attrs.Clone().SetStr("region", to)
						break
					}
				}
				queries = append(queries, q, moved)
			}
		}
	}

	feasible, infeasible := 0, 0
	for _, tier := range tiers {
		answered, fragments, trips := uint64(0), uint64(0), uint64(0)
		before := tier.coord.Cluster().Spanning
		for qi, q := range queries {
			label := fmt.Sprintf("%s tier, query %d", tier.name, qi)
			req := service.Request{Query: q, EdgeConstraint: window, MaxResults: 1, Timeout: 20 * time.Second}
			oracle := req
			oracle.Allow = pinnedAllow(q, host)
			want, err := global.Embed(oracle)
			if err != nil {
				t.Fatal(err)
			}
			if want.Status == core.StatusInconclusive {
				t.Fatalf("%s: the oracle ran out of time", label)
			}
			tripsBefore := tier.coord.Cluster().Spanning.FragmentRoundTrips
			resp, where, err := tier.coord.Embed(req)
			if err != nil {
				t.Fatal(err)
			}
			cross := strings.HasPrefix(where, "cross:")
			if cross != (len(want.Named) > 0) {
				t.Errorf("%s: answered by %q, oracle under the pinned allow-sets found %d", label, where, len(want.Named))
			}
			if len(want.Named) > 0 {
				feasible++
			} else {
				infeasible++
			}
			for _, named := range resp.Named {
				m := make(core.Mapping, q.NumNodes())
				for i := range m {
					h, ok := host.NodeByName(named[q.Node(graph.NodeID(i)).Name])
					if !ok {
						t.Fatalf("%s: mapping %v names an unknown host", label, named)
					}
					m[i] = h
					if cross && regionOf(host, h) != regionOf(q, graph.NodeID(i)) {
						t.Errorf("%s: node %d pinned to %s joined onto a %s host", label, i, regionOf(q, graph.NodeID(i)), regionOf(host, h))
					}
				}
				p, err := core.NewProblem(q, host, prog, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Verify(m); err != nil {
					t.Errorf("%s: mapping from %q fails on the undivided host: %v", label, where, err)
				}
			}
			if cross {
				answered++
				fragments += uint64(strings.Count(where, "+") + 1)
				trips += tier.coord.Cluster().Spanning.FragmentRoundTrips - tripsBefore
			}
		}
		after := tier.coord.Cluster().Spanning
		if after.Deadline != before.Deadline || after.ShardError != before.ShardError || after.Unsupported != before.Unsupported {
			t.Errorf("%s tier: spanning outcomes %+v; no request may end on the deadline, a shard error or as unsupported", tier.name, after)
		}
		if after.Answered != answered {
			t.Errorf("%s tier: spanning.answered = %d, %d requests came back cross:*", tier.name, after.Answered, answered)
		}
		if answered == 0 || trips > fragments+answered {
			t.Errorf("%s tier: %d round trips for %d answered requests over %d fragments, want at most fragments + 1 each", tier.name, trips, answered, fragments)
		}
		t.Logf("%s tier: %d answered over %d fragments in %d round trips; outcomes %+v", tier.name, answered, fragments, trips, after)
	}
	if feasible < 20 || infeasible < 10 {
		t.Errorf("fixture has %d feasible and %d infeasible pinned splits; the iff needs plenty of both", feasible, infeasible)
	}
}

// frontierPairHost is the join's hard case. West is the clique w0..w9,
// east the clique e0..e9; cut edges run wi–ei only, so a west host has
// exactly one east partner — plus the given extras. The query is the
// triangle u1–u2–v with u1, u2 pinned west and v east (and a node
// constraint holding every node to its region, so no single shard can
// answer): v needs an east host adjacent to both u1's and u2's, which
// exists only where an extra cut edge makes one. Every cut edge on its own
// is supported by every frontier host, so the allow-sets prune nothing:
// only trying (u1, u2) pairs finds it.
func frontierPairHost(extra ...[2]string) (host, query *graph.Graph) {
	host = graph.NewUndirected()
	for _, side := range []string{"w", "e"} {
		region := map[string]string{"w": "west", "e": "east"}[side]
		for i := 0; i < 10; i++ {
			host.AddNode(fmt.Sprintf("%s%d", side, i), graph.Attrs{}.SetStr("region", region))
		}
	}
	id := func(name string) graph.NodeID {
		n, _ := host.NodeByName(name)
		return n
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			host.MustAddEdge(id(fmt.Sprintf("w%d", i)), id(fmt.Sprintf("w%d", j)), nil)
			host.MustAddEdge(id(fmt.Sprintf("e%d", i)), id(fmt.Sprintf("e%d", j)), nil)
		}
		host.MustAddEdge(id(fmt.Sprintf("w%d", i)), id(fmt.Sprintf("e%d", i)), nil)
	}
	for _, e := range extra {
		host.MustAddEdge(id(e[0]), id(e[1]), nil)
	}
	query = graph.NewUndirected()
	u1 := query.AddNode("u1", graph.Attrs{}.SetStr("region", "west"))
	u2 := query.AddNode("u2", graph.Attrs{}.SetStr("region", "west"))
	v := query.AddNode("v", graph.Attrs{}.SetStr("region", "east"))
	query.MustAddEdge(u1, u2, nil)
	query.MustAddEdge(u1, v, nil)
	query.MustAddEdge(u2, v, nil)
	return host, query
}

const regionBound = "isBoundTo(vNode.region, rNode.region)"

// TestCoordinatorJoinIsNotTruncated: the only joinable frontier tuples,
// (w8, w9) and (w9, w8), are the 81st and 90th of the 90 the west shard
// enumerates — far past any page. Splitting frontier allow-sets reaches
// them; a join that stops at the first page (plain top-k) does not, and
// the test fails.
func TestCoordinatorJoinIsNotTruncated(t *testing.T) {
	host, q := frontierPairHost([2]string{"w9", "e8"})
	for _, tier := range []struct {
		name  string
		build func() *service.Coordinator
	}{
		{"local", func() *service.Coordinator {
			c, err := service.NewFederation(host, "region", service.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"remote", func() *service.Coordinator { return remoteTier(t, host) }},
	} {
		coord := tier.build()
		resp, where, err := coord.Embed(service.Request{Query: q, NodeConstraint: regionBound, MaxResults: 1, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if where != "cross:east+west" || len(resp.Named) != 1 {
			t.Fatalf("%s tier: answered by %q with %d mappings (%v), want the join's", tier.name, where, len(resp.Named), resp.Warnings)
		}
		m := resp.Named[0]
		if m["v"] != "e8" || !(m["u1"] == "w8" && m["u2"] == "w9" || m["u1"] == "w9" && m["u2"] == "w8") {
			t.Errorf("%s tier: joined %v, want u1, u2 on w8, w9 and v on e8", tier.name, m)
		}
		span := coord.Cluster().Spanning
		if span.Answered != 1 || span.FragmentRoundTrips < 3 || span.FragmentRoundTrips > 64 {
			t.Errorf("%s tier: spanning = %+v, want one answer found by a handful of split pages", tier.name, span)
		}
		t.Logf("%s tier: spanning = %+v", tier.name, span)
		// Splitting an allow-set asks for the same fragment again; the
		// join answered first, so no sweep ran.
		if span.FragmentResends < 1 || span.FragmentResends > span.FragmentRoundTrips || span.SweepProbes != 0 {
			t.Errorf("%s tier: spanning = %+v, want 1 to fragmentRoundTrips resends and no sweep probe", tier.name, span)
		}
		// An unpinned triangle is swept first, and the first shard asked
		// answers it.
		tri := graph.NewUndirected()
		tri.AddNodes(3)
		tri.MustAddEdge(0, 1, nil)
		tri.MustAddEdge(1, 2, nil)
		tri.MustAddEdge(0, 2, nil)
		if _, where, err := coord.Embed(service.Request{Query: tri, MaxResults: 1, Timeout: 20 * time.Second}); err != nil || strings.HasPrefix(where, "cross:") {
			t.Fatalf("%s tier: triangle answered by %q (%v), want one shard", tier.name, where, err)
		}
		if probes := coord.Cluster().Spanning.SweepProbes; probes != 1 {
			t.Errorf("%s tier: %d sweep probes for a triangle every shard holds, want 1", tier.name, probes)
		}
	}
}

// TestCoordinatorExhaustsInfeasibleSplit: without the extra cut edge no
// (u1, u2) pair has a common east partner. The join must prove that —
// every frontier tuple examined, none lost to a page limit — and say so:
// the request ends `exhausted` well inside its budget, not `deadline`.
func TestCoordinatorExhaustsInfeasibleSplit(t *testing.T) {
	host, q := frontierPairHost()
	coord, err := service.NewFederation(host, "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, where, err := coord.Embed(service.Request{Query: q, NodeConstraint: regionBound, MaxResults: 1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if where != "coordinator" || resp.Status != core.StatusInconclusive || len(resp.Named) != 0 {
		t.Fatalf("answered by %q: %v with %d mappings", where, resp.Status, len(resp.Named))
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("took %v of a 30s budget to exhaust 90 frontier tuples", took)
	}
	proved := false
	for _, w := range resp.Warnings {
		proved = proved || strings.Contains(w, "proved the split has no embedding")
	}
	if !proved {
		t.Errorf("warnings %q do not name the outcome", resp.Warnings)
	}
	span := coord.Cluster().Spanning
	if span.Exhausted != 1 || span.Deadline != 0 || span.Answered != 0 || span.FrontierEmpty != 0 || span.SweepAnswered != 0 {
		t.Errorf("spanning = %+v, want exactly one exhausted request", span)
	}
	if span.CandidatesExamined < 90 {
		t.Errorf("examined %d candidates; all 90 frontier tuples of the west fragment must be ruled out", span.CandidatesExamined)
	}
}

// assertNamedValid checks a named mapping's adjacency and delay windows
// against the global host by names.
func assertNamedValid(t *testing.T, q, host *graph.Graph, named service.NamedMapping) {
	t.Helper()
	for e := 0; e < q.NumEdges(); e++ {
		ed := q.Edge(graph.EdgeID(e))
		hu, ok1 := host.NodeByName(named[q.Node(ed.From).Name])
		hv, ok2 := host.NodeByName(named[q.Node(ed.To).Name])
		if !ok1 || !ok2 {
			t.Fatalf("named mapping references unknown hosts: %v", named)
		}
		he, ok := host.EdgeBetween(hu, hv)
		if !ok {
			t.Fatalf("query edge %d mapped to non-adjacent hosts %v-%v", e, hu, hv)
		}
		avg, _ := host.Edge(he).Attrs.Float("avgDelay")
		lo, _ := ed.Attrs.Float("minDelay")
		hi, _ := ed.Attrs.Float("maxDelay")
		if avg < lo || avg > hi {
			t.Errorf("query edge %d rides a %vms host edge outside [%v, %v]", e, avg, lo, hi)
		}
	}
}

func TestRemoteShardTransport(t *testing.T) {
	// Retry-with-backoff: the first two attempts hit a dead socket; the
	// peer protocol client must absorb transport failures on idempotent
	// calls. (A dead server forever exhausts retries and errors.)
	rs, err := NewRemoteShard("127.0.0.1:1", RemoteShardConfig{
		Timeout: 200 * time.Millisecond,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Stats(); err == nil {
		t.Error("dead peer produced no error")
	}
	if rs.Name() != "127.0.0.1:1" {
		t.Errorf("default name = %q", rs.Name())
	}
	if _, err := NewRemoteShard("://", RemoteShardConfig{}); err == nil {
		t.Error("bad URL accepted")
	}

	// A live peer: stats round-trip updates the cached routing facts.
	host := topo.Clique(4)
	svc := service.New(service.NewModel(host), service.Config{})
	srv := New(svc)
	srv.ConfigureShard("solo", []string{"solo"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	live, err := NewRemoteShard(ts.URL, RemoteShardConfig{Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := live.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "solo" || st.NodeCount != 4 || st.MaxDegree != 3 {
		t.Errorf("stats = %+v", st)
	}
	if live.NodeCount() != 4 {
		t.Errorf("cached node count = %d", live.NodeCount())
	}
	if got := live.Regions(); len(got) != 1 || got[0] != "solo" {
		t.Errorf("cached regions = %v", got)
	}

	// Deltas round-trip; a stale name surfaces as ErrStaleRouting.
	v, err := live.ApplyDelta(&graph.Delta{
		SetNodeAttrs: []graph.NodeAttrUpdate{{Node: "n0", Set: graph.Attrs{}.SetNum("cpu", 2)}},
	})
	if err != nil || v != 2 {
		t.Fatalf("ApplyDelta = (%d, %v), want (2, nil)", v, err)
	}
	if _, err := live.ApplyDelta(&graph.Delta{RemoveNodes: []string{"ghost"}}); err == nil {
		t.Error("stale delta produced no error")
	} else if !strings.Contains(err.Error(), service.ErrStaleRouting.Error()) {
		t.Errorf("stale delta error = %v, want ErrStaleRouting class", err)
	}
}

func TestClusterServer(t *testing.T) {
	host := twoRegionHost()
	coord, err := service.NewFederation(host, "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewClusterServer(coord))
	t.Cleanup(ts.Close)

	// A region-local query routes to one shard.
	q := topo.Clique(3)
	topo.SetDelayWindow(q, 5, 20)
	queryML, err := graphml.EncodeString(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/embed", EmbedRequest{
		QueryGraphML:   queryML,
		EdgeConstraint: avgDelayWindowSrc,
		MaxResults:     1,
		TimeoutMs:      10000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed answered %d: %s", resp.StatusCode, body)
	}
	if by := resp.Header.Get(AnsweredByHeader); by != "west" && by != "east" {
		t.Errorf("answered by %q, want a single shard", by)
	}
	var er EmbedResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Mappings) == 0 {
		t.Fatal("no mapping over HTTP")
	}

	// A spanning query comes back stitched.
	q2 := topo.Line(2)
	topo.SetDelayWindow(q2, 150, 250)
	queryML2, err := graphml.EncodeString(q2)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/embed", EmbedRequest{
		QueryGraphML:   queryML2,
		EdgeConstraint: avgDelayWindowSrc,
		MaxResults:     1,
		TimeoutMs:      10000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed answered %d: %s", resp.StatusCode, body)
	}
	if by := resp.Header.Get(AnsweredByHeader); !strings.HasPrefix(by, "cross:") {
		t.Errorf("spanning query answered by %q", by)
	}

	// A delta routes to its owning shard only; /cluster reports the new
	// version and the routing summary.
	resp, body = postJSON(t, ts.URL+"/deltas", DeltaRequest{
		SetNodeAttrs: []DeltaNodeAttrs{{Node: "n7", Attrs: map[string]any{"cpu": 4.0}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta answered %d: %s", resp.StatusCode, body)
	}
	var dr ClusterDeltaResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Versions) != 1 {
		t.Errorf("delta touched %v, want the east shard only", dr.Versions)
	}
	if _, ok := dr.Versions["east"]; !ok {
		t.Errorf("delta versions = %v, want east", dr.Versions)
	}

	resp, _ = postJSON(t, ts.URL+"/deltas", DeltaRequest{RemoveNodes: []string{"ghost"}})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale delta answered %d, want 409", resp.StatusCode)
	}

	var info service.ClusterInfo
	hresp, err := http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if len(info.Shards) != 2 || info.RoutedNodes != 10 || info.BoundaryEdges != 2 {
		t.Errorf("cluster = %+v", info)
	}
	if info.CoordinatorNodes != 0 {
		t.Errorf("coordinator models %d nodes, want 0", info.CoordinatorNodes)
	}
	if info.CrossEmbeds == 0 {
		t.Error("cross-shard embed not counted")
	}
	for _, s := range info.Shards {
		if s.Name == "east" && s.ModelVersion < 2 {
			t.Errorf("east version = %d, want ≥2 after the delta", s.ModelVersion)
		}
	}
}

// TestRemoteShardHungPeerBoundedByOneDeadline: against a peer that never
// answers, a fragment costs its budget plus the transport slack once —
// every attempt and backoff sleep shares one deadline, and an attempt
// the deadline ended is not retried.
func TestRemoteShardHungPeerBoundedByOneDeadline(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); hung.Close() })
	rs, err := NewRemoteShard(hung.URL, RemoteShardConfig{Client: hung.Client(), Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rs.Embed(service.Request{Query: topo.Line(2), Timeout: 100 * time.Millisecond})
	// One deadline ends the call at ≈200 ms; retried attempts took ≈900 ms.
	// The bound leaves room for scheduling under -race on a loaded runner.
	if elapsed := time.Since(start); err == nil || elapsed > 500*time.Millisecond {
		t.Fatalf("hung peer answered after %v (err %v), want an error within 500ms", elapsed, err)
	}
}

// TestStaleDeltaIsTheClientsNotTheShards: a delta adding a node the
// owning shard already has is the client's stale view. The coordinator
// answers 409 — as a remote peer would — and the failed piece does not
// count against the shard's health, however many such deltas arrive.
func TestStaleDeltaIsTheClientsNotTheShards(t *testing.T) {
	coord, err := service.NewFederation(twoRegionHost(), "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewClusterServer(coord))
	t.Cleanup(ts.Close)
	dup := DeltaRequest{AddNodes: []DeltaNode{{Name: "n0", Attrs: map[string]any{"region": "west"}}}}
	for i := 0; i < 3; i++ {
		if resp, raw := postJSON(t, ts.URL+"/deltas", dup); resp.StatusCode != http.StatusConflict {
			t.Fatalf("stale delta %d: %d %s, want 409", i, resp.StatusCode, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info service.ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	for _, sh := range info.Shards {
		if !sh.Healthy || sh.Errors != 0 {
			t.Fatalf("shard %s after three stale deltas: healthy %v, %d errors", sh.Name, sh.Healthy, sh.Errors)
		}
	}
}
