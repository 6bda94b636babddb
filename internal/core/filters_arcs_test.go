package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// These tests hold the arc-slot path of the edge-constraint fill — the
// constraint evaluated from the snapshot's arc-slot range indexes
// straight into a query edge's mask-adjacency — to the path it replaces:
// the satisfied-mask over the host edges, scattered into the rows arc by
// arc (addArcs), which every host and program the arc path refuses still
// takes.

var (
	// arcAtoms are comparisons of a numeric hosting column with a query
	// constant, the shape the arc-slot indexes answer: every operator, the
	// column on either side, a NaN constant, constants next to the first
	// and the last of the 64 value bands.
	arcAtoms = []string{
		"rEdge.d >= vEdge.lo", "rEdge.d <= vEdge.hi", "rEdge.d < 50", "rEdge.d > vEdge.lo",
		"rEdge.d == vEdge.k", "rEdge.d != 30", "vEdge.hi > rEdge.e", "rEdge.e >= vEdge.lo",
		"rEdge.e == 7", "rEdge.d >= vEdge.nan", "vEdge.lo <= rEdge.d",
		"rEdge.d <= 97", "rEdge.d > 1", // next to the top and bottom bands
	}
	// refusedAtoms send the whole program back to the transpose: a
	// constant that is not a number, and a column with strings.
	refusedAtoms = []string{"rEdge.d >= vEdge.name", "rEdge.d == true", "rEdge.s == 'x'"}
)

// arcProblem draws a dense undirected host above the density bound —
// 28–64 nodes (one word per row) or 70–100 (two) — whose edge attribute d
// is a number, NaN, missing or a boolean, e a number or missing and s a
// string on some edges, a small query with numeric, NaN and string window
// attributes, and a program over atoms: one to three of them, each maybe
// negated, under && or ||.
func arcProblem(t *testing.T, rng *rand.Rand, atoms []string) *Problem {
	t.Helper()
	nr := 28 + rng.Intn(37)
	if rng.Intn(3) == 0 {
		nr = 70 + rng.Intn(31)
	}
	density := 0.55 + 0.35*rng.Float64()
	host := graph.NewUndirected()
	host.AddNodes(nr)
	for u := 0; u < nr; u++ {
		for v := u + 1; v < nr; v++ {
			if rng.Float64() > density {
				continue
			}
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
			host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), a)
		}
	}
	if !index.ArcIndexed(host) {
		t.Fatalf("a %d-node host of density %.2f is below the density bound", nr, density)
	}
	query := graph.NewUndirected()
	nq := 2 + rng.Intn(3)
	query.AddNodes(nq)
	for i := 1; i < nq; i++ {
		lo := float64(rng.Intn(50))
		query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Attrs{}.
			SetNum("lo", lo).SetNum("hi", lo+float64(rng.Intn(60))).SetNum("k", float64(rng.Intn(100))).
			SetNum("nan", math.NaN()).SetStr("name", "a"))
	}
	parts := make([]string, 1+rng.Intn(3))
	for i := range parts {
		parts[i] = atoms[rng.Intn(len(atoms))]
		if rng.Intn(4) == 0 {
			parts[i] = "!(" + parts[i] + ")"
		}
	}
	prog := expr.MustCompile("(" + strings.Join(parts, []string{") && (", ") || ("}[rng.Intn(2)]) + ")")
	p, err := NewProblem(query, host, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// transposeRows is the reference the arc path must reproduce word for
// word: query edge i's satisfied-mask over the host edges, evaluated
// chunk by chunk over scratch columns, scattered into a mask-adjacency.
func transposeRows(p *Problem, i int) []sets.Bitset {
	qe := p.Query.Edge(graph.EdgeID(i))
	cols := index.NewColumns(nil)
	cols.Reset(p.Host)
	from, to := cols.Endpoints()
	mask := sets.NewBitset(p.Host.NumEdges())
	var s expr.Scratch
	p.EdgeConstraint.EvalEdgeBatch(&expr.EdgeBatch{
		VEdge: qe.Attrs, VSource: p.Query.Node(qe.From).Attrs, VTarget: p.Query.Node(qe.To).Attrs,
		Host: cols, RSource: from, RTarget: to,
	}, &s, mask)
	rows := sets.MakeBitsets(p.Host.NumNodes(), p.Host.NumNodes())
	addArcs(mask, from, to, rows, rows)
	return rows
}

// TestArcPathMatchesTranspose: on random hosts above the density bound,
// an index-served build's mask-adjacency rows equal the transpose's word
// for word, for programs the arc-slot indexes answer and for programs
// they refuse (which the build sends to the transpose); EvalEdgeRanges
// answers exactly the former, and EdgePairsEval counts every (query edge,
// host edge) pair on both paths.
func TestArcPathMatchesTranspose(t *testing.T) {
	answered := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		atoms, refused := arcAtoms, seed%4 == 0
		if refused {
			atoms = append(append([]string(nil), arcAtoms[:2]...), refusedAtoms[seed/4%3])
		}
		p := arcProblem(t, rng, atoms)
		idx := index.Build(p.Host, 1, index.Config{})
		cols := idx.ColumnsFor(p.Host)
		from, to := cols.Endpoints()
		nr := p.Host.NumNodes()
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("seed %d workers %d %q", seed, workers, p.EdgeConstraint)
			f := BuildFilters(p, &Options{Index: idx, Workers: workers})
			for i := 0; i < p.Query.NumEdges(); i++ {
				want := transposeRows(p, i)
				for r := 0; r < nr; r++ {
					if !f.tableOf[i].out[r].Equal(&want[r]) {
						t.Fatalf("%s: edge %d row %d = %v, transpose %v", label, i, r, f.tableOf[i].out[r].AppendTo(nil), want[r].AppendTo(nil))
					}
				}
				qe := p.Query.Edge(graph.EdgeID(i))
				view := sets.BitsetOver(make([]uint64, nr*((nr+63)/64)))
				var s expr.Scratch
				ok := p.EdgeConstraint.EvalEdgeRanges(&expr.EdgeBatch{
					VEdge: qe.Attrs, VSource: p.Query.Node(qe.From).Attrs, VTarget: p.Query.Node(qe.To).Attrs,
					Host: cols, RSource: from, RTarget: to,
				}, &s, &view)
				usesRefused := false
				for _, a := range refusedAtoms {
					usesRefused = usesRefused || strings.Contains(p.EdgeConstraint.String(), a)
				}
				if ok == usesRefused {
					t.Fatalf("%s: EvalEdgeRanges answered %v", label, ok)
				}
				if ok {
					answered++
					words := (nr + 63) / 64
					for x := range nr * words {
						if view.Word(x) != want[x/words].Word(x%words) {
							t.Fatalf("%s: EvalEdgeRanges edge %d row %d differs from the transpose", label, i, x/words)
						}
					}
				}
			}
			oracle := BuildFilters(p, &Options{Workers: workers})
			sameFilters(t, label, p, oracle, f)
			if got, want := f.Stats().EdgePairsEval, oracle.Stats().EdgePairsEval; got != want || got != int64(p.Query.NumEdges()*p.Host.NumEdges()) {
				t.Fatalf("%s: EdgePairsEval %d, index-less %d, want %d", label, got, want, p.Query.NumEdges()*p.Host.NumEdges())
			}
			f.release()
			oracle.release()
		}
	}
	if answered == 0 {
		t.Fatal("the arc-slot path answered nothing")
	}
}

// denseWindowProblem draws a host above the density bound with the
// paper's three delay attributes on every edge and a 3–4-node query with
// delay windows under delayWindow: a build over its index takes the arc
// path.
func denseWindowProblem(t *testing.T, rng *rand.Rand) *Problem {
	t.Helper()
	host := graph.NewUndirected()
	nr := 30 + rng.Intn(11)
	for i := 0; i < nr; i++ {
		host.AddNode("", graph.Attrs{}.SetNum("cpu", float64(1+rng.Intn(4))))
	}
	for u := 0; u < nr; u++ {
		for v := u + 1; v < nr; v++ {
			if rng.Float64() < 0.8 {
				host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), delayBag(rng))
			}
		}
	}
	if !index.ArcIndexed(host) {
		t.Fatalf("a %d-node host with %d edges is below the density bound", nr, host.NumEdges())
	}
	query := graph.NewUndirected()
	nq := 3 + rng.Intn(2)
	query.AddNodes(nq)
	for i := 1; i < nq; i++ {
		lo := rng.Float64() * 40
		query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Attrs{}.
			SetNum("minDelay", lo).SetNum("maxDelay", lo+30+rng.Float64()*60))
	}
	p, err := NewProblem(query, host, delayWindow, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func delayBag(rng *rand.Rand) graph.Attrs {
	d := 1 + rng.Float64()*99
	return graph.Attrs{}.SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.2)
}

// TestArcIndexAcrossDeltas: the arc-slot layouts ride Index.Apply as
// their columns do — a delta naming avgDelay keeps both delay columns'
// layouts (the very same ones), one naming minDelay drops minDelay's and
// keeps maxDelay's, and an edge add or remove drops both — and the
// filters built on every snapshot of the chain equal an index-less
// rebuild, row for row and count for count; filters held from an earlier
// snapshot still equal the rebuild of theirs.
func TestArcIndexAcrossDeltas(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		p := denseWindowProblem(t, rng)
		host, idx := p.Host, index.Build(p.Host, 1, index.Config{})
		build := func(host *graph.Graph, idx *index.Index) (*Problem, *Filters) {
			q, err := NewProblem(p.Query, host, delayWindow, nil)
			if err != nil {
				t.Fatal(err)
			}
			return q, BuildFilters(q, &Options{Index: idx})
		}
		_, held := build(host, idx)
		for step := 0; step < 8; step++ {
			name := func(r graph.NodeID) string { return host.Node(r).Name }
			e := host.Edge(graph.EdgeID(rng.Intn(host.NumEdges())))
			set := func(attr string) *graph.Delta {
				return &graph.Delta{SetEdgeAttrs: []graph.EdgeAttrUpdate{{
					Source: name(e.From), Target: name(e.To), Set: graph.Attrs{}.SetNum(attr, rng.Float64()*120),
				}}}
			}
			var d *graph.Delta
			keep := map[string]bool{}
			switch step % 4 {
			case 0:
				d, keep["minDelay"], keep["maxDelay"] = set("avgDelay"), true, true
			case 1:
				d, keep["maxDelay"] = set("minDelay"), true
			case 2:
				d = &graph.Delta{RemoveEdges: []graph.EdgeRef{{Source: name(e.From), Target: name(e.To)}}}
			case 3:
				u, v := graph.NodeID(rng.Intn(host.NumNodes())), graph.NodeID(rng.Intn(host.NumNodes()))
				for _, dup := host.EdgeBetween(u, v); u == v || dup; _, dup = host.EdgeBetween(u, v) {
					u, v = graph.NodeID(rng.Intn(host.NumNodes())), graph.NodeID(rng.Intn(host.NumNodes()))
				}
				d = &graph.Delta{AddEdges: []graph.EdgeSpec{{Source: name(u), Target: name(v), Attrs: delayBag(rng)}}}
			}
			cols := idx.ColumnsFor(host)
			before := map[string]*expr.Range{}
			for _, attr := range []string{"minDelay", "maxDelay"} {
				before[attr] = cols.ArcRange(cols.EdgeColumn(attr))
			}
			next, err := host.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			idx, host = idx.Apply(host, next, d, uint64(step+2)), next
			label := fmt.Sprintf("seed %d step %d", seed, step)
			cols = idx.ColumnsFor(host)
			for _, attr := range []string{"minDelay", "maxDelay"} {
				col := cols.EdgeColumn(attr)
				if cols.ArcArmed(col) != keep[attr] || keep[attr] && cols.ArcRange(col) != before[attr] {
					t.Fatalf("%s: %s arc-slot layout carried %v, want %v", label, attr, cols.ArcArmed(col), keep[attr])
				}
			}
			q, f := build(host, idx)
			oracle := BuildFilters(q, &Options{})
			sameFilters(t, label, q, oracle, f)
			for i := range f.tableOf {
				want := transposeRows(q, i)
				for r := range want {
					if !f.tableOf[i].out[r].Equal(&want[r]) {
						t.Fatalf("%s: edge %d row %d differs from the transpose", label, i, r)
					}
				}
			}
			if got, want := f.Stats(), oracle.Stats(); got.EdgePairsEval != want.EdgePairsEval || got.FilterEntries != want.FilterEntries {
				t.Fatalf("%s: pairs %d entries %d, index-less %d and %d", label, got.EdgePairsEval, got.FilterEntries, want.EdgePairsEval, want.FilterEntries)
			}
			for _, attr := range []string{"minDelay", "maxDelay"} {
				if !cols.ArcArmed(cols.EdgeColumn(attr)) {
					t.Fatalf("%s: the request did not re-arm %s's arc-slot layout", label, attr)
				}
			}
			f.release()
			oracle.release()
		}
		fresh := BuildFilters(p, &Options{})
		for i, et := range fresh.tableOf {
			for r := range et.out {
				if !held.tableOf[i].out[r].Equal(&et.out[r]) {
					t.Fatalf("seed %d: filters held from the first snapshot changed under the deltas", seed)
				}
			}
		}
	}
}
