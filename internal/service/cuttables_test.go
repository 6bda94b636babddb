package service

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// These tests hold a spanning request's cut tables to the transpose they
// replaced: the edge constraint's satisfied-mask over the boundary edges,
// every admitted arc set by hand. A dense, undirected boundary answers a
// rangeable program from its arc-slot range indexes; every other boundary
// and program takes the transpose.

// cutBoundary draws a boundary view over regions of size nodes whose cut
// edges join each cross-region pair with probability density: edge
// attribute d is a number, NaN, missing or a boolean, e a number or
// missing, s a string on some edges, and every endpoint carries a number
// cpu. A directed boundary gets each edge in a random orientation, some in
// both.
func cutBoundary(rng *rand.Rand, regions, nodes int, density float64, directed bool) *boundaryView {
	name := func(r, i int) string { return fmt.Sprintf("r%d-%d", r, i) }
	cpu := map[string]graph.Attrs{}
	routes := map[string]string{}
	for r := 0; r < regions; r++ {
		for i := 0; i < nodes; i++ {
			cpu[name(r, i)] = graph.Attrs{}.SetNum("cpu", float64(rng.Intn(8)))
			routes[name(r, i)] = fmt.Sprintf("shard%d", r)
		}
	}
	var cuts []graph.CutEdge
	cut := func(u, v string) {
		var a graph.Attrs
		switch rng.Intn(8) {
		case 0: // missing
		case 1:
			a = a.SetNum("d", math.NaN())
		case 2:
			a = a.SetBool("d", rng.Intn(2) == 0)
		default:
			a = a.SetNum("d", float64(rng.Intn(100)))
		}
		if rng.Intn(4) > 0 {
			a = a.SetNum("e", float64(rng.Intn(20)))
		}
		if rng.Intn(5) == 0 {
			a = a.SetStr("s", "x")
		}
		cuts = append(cuts, graph.CutEdge{Source: u, Target: v, SourcePart: routes[u], TargetPart: routes[v],
			Attrs: a, SourceAttrs: cpu[u], TargetAttrs: cpu[v]})
	}
	for r := 0; r < regions; r++ {
		for s := r + 1; s < regions; s++ {
			for i := 0; i < nodes; i++ {
				for k := 0; k < nodes; k++ {
					if rng.Float64() >= density {
						continue
					}
					u, v := name(r, i), name(s, k)
					switch {
					case !directed:
						cut(u, v)
					case rng.Intn(4) == 0:
						cut(u, v)
						cut(v, u)
					case rng.Intn(2) == 0:
						cut(v, u)
					default:
						cut(u, v)
					}
				}
			}
		}
	}
	return newBoundaryView(cuts, directed, routes)
}

// cutPrograms are the edge constraints the tables are checked under, by
// what the boundary must do with them.
var cutPrograms = []struct {
	src  string
	kind string // "ranged": the arc-slot pass answers it on a dense, undirected boundary
}{
	{"rEdge.d >= vEdge.lo && rEdge.d <= vEdge.hi", "ranged"},
	{"rEdge.d < 50 || !(rEdge.e == 7)", "ranged"},
	{"vEdge.hi > rEdge.e", "ranged"},
	{"rEdge.d >= vEdge.name", "refused"},                       // a constant that is not a number
	{"rEdge.s == 'x' && rEdge.d > 1", "refused"},               // a column with strings
	{"rEdge.d + rEdge.e > vEdge.lo", "refused"},                // not of the rangeable shape
	{"rSource.cpu > rTarget.cpu && rEdge.d >= 10", "oriented"}, // tells an edge's two arcs apart
	{"rSource.cpu >= vSource.cpu", "oriented"},
	{"", "all"}, // no edge constraint
}

// cutQuery is a two-edge query whose edges carry the windows the programs
// read.
func cutQuery(rng *rand.Rand) *graph.Graph {
	q := graph.NewUndirected()
	for i := 0; i < 3; i++ {
		q.AddNode(fmt.Sprintf("q%d", i), graph.Attrs{}.SetNum("cpu", float64(rng.Intn(8))))
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}} {
		lo := float64(rng.Intn(50))
		q.MustAddEdge(e[0], e[1], graph.Attrs{}.SetNum("lo", lo).SetNum("hi", lo+float64(rng.Intn(60))).SetStr("name", "a"))
	}
	return q
}

// transposeTable is the reference: query edge e's satisfied-mask over the
// boundary edges, evaluated chunk by chunk over scratch columns, with
// every admitted arc set in both sides' rows — both arcs of an undirected
// edge, or for a program that tells them apart a second evaluation with
// the endpoints swapped.
func transposeTable(bv *boundaryView, q *graph.Graph, e graph.EdgeID, prog *expr.Program) [2][]sets.Bitset {
	n, m := bv.bg.NumNodes(), bv.bg.NumEdges()
	cols := index.NewColumns(nil)
	cols.Reset(bv.bg)
	from, to := cols.Endpoints()
	rows := [2][]sets.Bitset{sets.MakeBitsets(n, n), sets.MakeBitsets(n, n)}
	qe := q.Edge(e)
	b := expr.EdgeBatch{VEdge: qe.Attrs, VSource: q.Node(qe.From).Attrs, VTarget: q.Node(qe.To).Attrs,
		Host: cols, RSource: from, RTarget: to}
	admit := func(rs, rt []graph.NodeID) {
		mask := sets.NewBitset(m)
		if prog == nil {
			for i := 0; i < m; i++ {
				mask.Set(int32(i))
			}
		} else {
			var s expr.Scratch
			prog.EvalEdgeBatch(&b, &s, mask)
		}
		mask.ForEach(func(i int32) bool {
			rows[0][rs[i]].Set(rt[i])
			rows[1][rt[i]].Set(rs[i])
			return true
		})
	}
	admit(from, to)
	if !bv.bg.Directed() {
		if prog != nil && (prog.Uses(expr.ObjRSource) || prog.Uses(expr.ObjRTarget)) {
			b.RSource, b.RTarget = to, from
		}
		admit(to, from)
	}
	return rows
}

// TestCutTablesMatchTranspose: on dense undirected boundaries (within
// index.ArcIndexed), sparse ones and directed ones, every row of every cut
// table equals the transpose's word for word, under rangeable programs,
// programs the arc-slot pass refuses, programs that tell an edge's two
// arcs apart, and no program. The arc-slot pass writes exactly the tables
// of rangeable programs on the dense undirected boundaries, and only
// those boundaries arm arc-slot layouts.
func TestCutTablesMatchTranspose(t *testing.T) {
	ranged := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		boundaries := []struct {
			name     string
			bv       *boundaryView
			arcSlots bool
		}{
			{"dense undirected", cutBoundary(rng, 4, 8+rng.Intn(8), 0.7+0.2*rng.Float64(), false), true},
			{"sparse undirected", cutBoundary(rng, 4, 30, 0.08, false), false},
			{"dense directed", cutBoundary(rng, 3, 12, 0.8, true), false},
		}
		for _, bd := range boundaries {
			if index.ArcIndexed(bd.bv.bg) != bd.arcSlots {
				t.Fatalf("seed %d %s: %d nodes, %d edges, ArcIndexed %v", seed, bd.name,
					bd.bv.bg.NumNodes(), bd.bv.bg.NumEdges(), !bd.arcSlots)
			}
			for _, pc := range cutPrograms {
				var prog *expr.Program
				if pc.src != "" {
					prog = expr.MustCompile(pc.src)
				}
				q := cutQuery(rng)
				j := &spanJoin{bv: bd.bv, req: Request{Query: q}, edgeProg: prog}
				j.prepare()
				for e := graph.EdgeID(0); int(e) < q.NumEdges(); e++ {
					label := fmt.Sprintf("seed %d %s %q edge %d", seed, bd.name, pc.src, e)
					tab, want := j.table(e), transposeTable(bd.bv, q, e, prog)
					if j.table(e) != tab {
						t.Fatalf("%s: the table was built twice in one request", label)
					}
					for side := range want {
						for h := range want[side] {
							if !tab.rows[side][h].Equal(&want[side][h]) {
								t.Fatalf("%s: rows[%d][%d] = %v, transpose %v", label, side, h,
									tab.rows[side][h].AppendTo(nil), want[side][h].AppendTo(nil))
							}
						}
					}
					if wantRanged := bd.arcSlots && pc.kind == "ranged"; tab.ranged != wantRanged {
						t.Fatalf("%s: the arc-slot pass wrote the rows: %v, want %v", label, tab.ranged, wantRanged)
					}
					if tab.ranged {
						ranged++
					}
				}
			}
			for _, attr := range []string{"d", "e"} {
				cols := bd.bv.cols
				if col := cols.EdgeColumn(attr); !cols.Armed(col) || cols.ArcArmed(col) != bd.arcSlots {
					t.Fatalf("seed %d %s: %s armed %v, arc-slot layout armed %v, want true and %v",
						seed, bd.name, attr, cols.Armed(col), cols.ArcArmed(col), bd.arcSlots)
				}
			}
		}
	}
	if ranged == 0 {
		t.Fatal("the arc-slot pass wrote no table")
	}
}

// TestAllAdmittedCutTableBuiltOnce: with no edge constraint, requests
// running at once, two cut edges each, all read the boundary view's one
// all-admitted table, and it admits every boundary edge.
func TestAllAdmittedCutTableBuiltOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bv := cutBoundary(rng, 3, 6, 0.5, false)
	queries := []*graph.Graph{cutQuery(rng), cutQuery(rng), cutQuery(rng), cutQuery(rng)}
	tables := make([][2]*cutTable, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := &spanJoin{bv: bv, req: Request{Query: q}}
			j.prepare()
			tables[i] = [2]*cutTable{j.table(0), j.table(1)}
		}()
	}
	wg.Wait()
	for i, pair := range tables {
		for _, tab := range pair {
			if tab != bv.all {
				t.Fatalf("request %d read a table that is not the view's all-admitted one", i)
			}
		}
	}
	want := transposeTable(bv, queries[0], 0, nil)
	for side := range want {
		for h := range want[side] {
			if !bv.all.rows[side][h].Equal(&want[side][h]) {
				t.Fatalf("all-admitted rows[%d][%d] differ from the boundary's adjacency", side, h)
			}
		}
	}
}

// TestBoundaryRangeIndexArmsOnFirstSpanningRequest: the boundary of the
// 6-region, 296-site federation is within index.ArcIndexed, and its delay
// columns' range indexes and arc-slot layouts are absent before the first
// spanning request and present after it, within their memory bound and
// reported by /cluster; the sparse two-region boundary of
// federationHost arms the edge-space indexes only.
func TestBoundaryRangeIndexArmsOnFirstSpanningRequest(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 296}, rand.New(rand.NewSource(1)))
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	bv := f.view
	if !index.ArcIndexed(bv.bg) {
		t.Fatalf("the boundary (%d nodes, %d edges) is outside the density bound", bv.bg.NumNodes(), bv.bg.NumEdges())
	}
	const window = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"
	armed := func(bv *boundaryView) (edge, arcs bool) {
		for _, attr := range []string{"minDelay", "maxDelay"} {
			col := bv.cols.EdgeColumn(attr)
			edge, arcs = edge || bv.cols.Armed(col), arcs || bv.cols.ArcArmed(col)
		}
		return edge, arcs
	}
	if edge, arcs := armed(bv); edge || arcs || f.Cluster().BoundaryRangeIndexBytes != 0 {
		t.Fatal("a boundary range index armed before any spanning request")
	}
	rng := rand.New(rand.NewSource(3))
	for {
		q, plant, err := topo.Subgraph(host, 4, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		region := func(h graph.NodeID) string { r, _ := host.Node(h).Attrs.Text("region"); return r }
		spans := false
		for _, h := range plant[1:] {
			spans = spans || region(h) != region(plant[0])
		}
		if !spans {
			continue
		}
		topo.WidenDelayWindows(q, 0.1)
		before := f.Cluster().Spanning
		if _, _, err := f.Embed(Request{Query: q, EdgeConstraint: window, MaxResults: 1, Timeout: 10 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if after := f.Cluster().Spanning; after.FragmentRoundTrips > before.FragmentRoundTrips || after.FrontierEmpty > before.FrontierEmpty {
			break // the join built cut tables
		}
	}
	m, total := bv.bg.NumEdges(), 0
	for _, attr := range []string{"minDelay", "maxDelay"} {
		col := bv.cols.EdgeColumn(attr)
		if !bv.cols.Armed(col) || !bv.cols.ArcArmed(col) {
			t.Fatalf("the %s range index or its arc-slot layout did not arm during the first spanning request", attr)
		}
		// The edge index: an int32 and a float64 per edge and 67 bitsets
		// over the edges. The layout: two int32 slots per edge and 67
		// bitsets over at most 4·2|E| slots (the density bound).
		edge, layout := bv.cols.Range(col).Bytes(), bv.cols.ArcRange(col).Bytes()
		if bound := 12*m + 67*8*((m+63)/64); edge > bound {
			t.Fatalf("the %s edge index retains %d bytes, bound %d", attr, edge, bound)
		}
		if bound := 8*m + 67*4*2*m/8; layout > bound {
			t.Fatalf("the %s arc-slot layout retains %d bytes, bound %d", attr, layout, bound)
		}
		t.Logf("%s: edge index %d bytes, arc-slot layout %d bytes over %d boundary edges, %d nodes",
			attr, edge, layout, m, bv.bg.NumNodes())
		total += edge + layout
	}
	if got := f.Cluster().BoundaryRangeIndexBytes; got != total {
		t.Fatalf("/cluster reports %d range-index bytes, the view retains %d", got, total)
	}

	sparse, err := NewFederation(federationHost(), "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if index.ArcIndexed(sparse.view.bg) {
		t.Fatal("the two-region boundary is within the density bound")
	}
	resp, where, err := sparse.Embed(Request{Query: spanningPair(), EdgeConstraint: avgDelayWindowSrc, MaxResults: 1, Timeout: 5 * time.Second})
	if err != nil || len(resp.Named) == 0 {
		t.Fatalf("the spanning pair was not joined: %v from %q", err, where)
	}
	cols := sparse.view.cols
	if col := cols.EdgeColumn("avgDelay"); !cols.Armed(col) || cols.ArcArmed(col) {
		t.Fatalf("sparse boundary: edge index armed %v, arc-slot layout armed %v; want only the former", cols.Armed(col), cols.ArcArmed(col))
	}
}

// TestReleasedCutTablesArePoisoned: a request's cut tables go back to the
// view's pool when its join ends, filled with ones on a poisoned view. The
// requests after it — with an edge constraint, without one, in path mode —
// still read exactly the transpose or the reachability rows, so none reads
// a table after its release, and no table the view shares is released.
// Through the coordinator, every spanning answer on a poisoned view, from
// requests running at once, still verifies against the whole host.
func TestReleasedCutTablesArePoisoned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bv := cutBoundary(rng, 3, 12, 0.7, false)
	bv.poison = true
	fwd, rev := index.BuildReach(bv.bg, 2)
	seen := map[*cutTable]bool{}
	reused := 0
	for i := 0; i < 80; i++ {
		pc := cutPrograms[i%len(cutPrograms)]
		var prog *expr.Program
		if pc.src != "" {
			prog = expr.MustCompile(pc.src)
		}
		q := cutQuery(rng)
		j := &spanJoin{bv: bv, req: Request{Query: q}, edgeProg: prog}
		if i%7 == 3 {
			j.req.Algorithm, j.req.Path.MaxHops = AlgoPathEmbed, 2
		}
		j.prepare()
		var built []*cutTable
		for e := graph.EdgeID(0); int(e) < q.NumEdges(); e++ {
			tab := j.table(e)
			want := [2][]sets.Bitset{fwd, rev}
			if !j.pathMode {
				want = transposeTable(bv, q, e, prog)
			}
			for side := range want {
				for h := range want[side] {
					if !tab.rows[side][h].Equal(&want[side][h]) {
						t.Fatalf("request %d %q path %v edge %d: rows[%d][%d] read a released table",
							i, pc.src, j.pathMode, e, side, h)
					}
				}
			}
			if prog != nil && !j.pathMode {
				if seen[tab] {
					reused++
				}
				seen[tab] = true
				built = append(built, tab)
			}
		}
		j.release()
		for _, tab := range built {
			for _, w := range tab.words {
				if slices.ContainsFunc(w, func(x uint64) bool { return x != ^uint64(0) }) {
					t.Fatalf("request %d: a released table is not poisoned", i)
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no request was handed a released table")
	}

	host := federationHost()
	f, err := NewFederation(host, "region", Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.view.poison = true
	p, err := core.NewProblem(spanningPair(), host, expr.MustCompile(avgDelayWindowSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	answers := make([]*Response, 40)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(answers); i += 4 {
				resp, where, err := f.Embed(Request{Query: spanningPair(), EdgeConstraint: avgDelayWindowSrc,
					MaxResults: 1, Timeout: 5 * time.Second})
				if err != nil || !strings.HasPrefix(where, "cross:") {
					t.Errorf("request %d answered by %q: %v", i, where, err)
					return
				}
				answers[i] = resp
			}
		}()
	}
	wg.Wait()
	for i, resp := range answers {
		if resp == nil || len(resp.Named) == 0 {
			t.Fatalf("request %d found nothing", i)
		}
		if err := p.Verify(namedToMapping(t, spanningPair(), host, resp.Named[0])); err != nil {
			t.Fatalf("request %d: stitched mapping invalid globally: %v", i, err)
		}
	}
}
