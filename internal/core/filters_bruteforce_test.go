package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// Random constraint material for the brute-force equivalence below: atoms
// over every Table-I object, so programs that tell an undirected host
// edge's orientations apart (rSource/rTarget) are as common as ones that
// do not, glued with the three logical operators.
var (
	edgeAtoms = []string{
		"rEdge.d >= vEdge.lo", "rEdge.d <= vEdge.hi", "has(rEdge.flag)",
		"rEdge.d * 2 < vEdge.hi + vEdge.lo", "rEdge.flag == true",
		"rSource.cpu >= vSource.cpu", "rTarget.cpu >= vTarget.cpu",
		"rSource.cpu > rTarget.cpu", "isBoundTo(vSource.os, rSource.os)",
		"rTarget.os == 'linux'", "!has(rTarget.os)",
		"abs(rSource.cpu - rTarget.cpu) <= vEdge.slack",
		"rEdge.d / rSource.cpu < 30", "min(rSource.cpu, rTarget.cpu) >= 2",
		// The shape range indexes answer, a boolean column against a number
		// included.
		"vEdge.lo < rEdge.d", "rEdge.d != 50", "rEdge.flag != 1",
	}
	nodeAtoms = []string{
		"rNode.cpu >= vNode.cpu", "isBoundTo(vNode.os, rNode.os)",
		"!has(rNode.reserved)", "rNode.os != 'bsd'", "rNode.cpu / 0 > 1",
	}
)

func randomConstraint(rng *rand.Rand, atoms []string) *expr.Program {
	n := 1 + rng.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = atoms[rng.Intn(len(atoms))]
		if rng.Intn(4) == 0 {
			parts[i] = "!(" + parts[i] + ")"
		}
	}
	return expr.MustCompile("(" + strings.Join(parts, []string{") && (", ") || ("}[rng.Intn(2)]) + ")")
}

// attributedProblem draws a host whose attribute bags have holes and
// mixed kinds, a small query over it, and random constraints. A dense
// host has 22–29 nodes and 90% of the pairs as edges: an undirected one
// is within the density bound, so its index keeps arc-slot range indexes.
func attributedProblem(t *testing.T, rng *rand.Rand, directed, dense bool) *Problem {
	t.Helper()
	nodeBag := func() graph.Attrs {
		var a graph.Attrs
		if rng.Intn(5) > 0 {
			a = a.SetNum("cpu", float64(rng.Intn(5)))
		}
		switch rng.Intn(4) {
		case 0:
			a = a.SetStr("os", "linux")
		case 1:
			a = a.SetStr("os", "bsd")
		case 2:
			a = a.SetNum("os", 7) // wrong kind on purpose
		}
		return a
	}
	host := graph.New(directed)
	nr, density := 6+rng.Intn(8), 0.5
	if dense {
		nr, density = nr+16, 0.9
	}
	for i := 0; i < nr; i++ {
		host.AddNode("", nodeBag())
	}
	for u := 0; u < nr; u++ {
		for v := 0; v < nr; v++ {
			if u == v || (!directed && u > v) || rng.Float64() > density {
				continue
			}
			var a graph.Attrs
			if rng.Intn(6) > 0 {
				a = a.SetNum("d", float64(rng.Intn(100)))
			}
			if rng.Intn(3) == 0 {
				a = a.SetBool("flag", rng.Intn(2) == 0)
			}
			host.MustAddEdge(graph.NodeID(u), graph.NodeID(v), a)
		}
	}
	query := graph.New(directed)
	nq := 2 + rng.Intn(3)
	for i := 0; i < nq; i++ {
		query.AddNode("", nodeBag())
	}
	for i := 1; i < nq; i++ {
		lo := float64(rng.Intn(40))
		query.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Attrs{}.
			SetNum("lo", lo).SetNum("hi", lo+float64(rng.Intn(80))).SetNum("slack", float64(rng.Intn(3))))
	}
	var edgeC, nodeC *expr.Program
	if rng.Intn(5) > 0 {
		edgeC = randomConstraint(rng, edgeAtoms)
	}
	if rng.Intn(2) == 0 {
		nodeC = randomConstraint(rng, nodeAtoms)
	}
	p, err := NewProblem(query, host, edgeC, nodeC)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bruteForceTables decides every (query edge, ordered host node pair)
// with the per-pair reference — Problem.NodeFeasible, the degree filter,
// Problem.EdgeFeasible — and returns per query edge the forward rows
// (tail image -> head candidates) and backward rows, plus the base sets
// they imply.
func bruteForceTables(p *Problem) (fwd, bwd [][]sets.Set, base []sets.Set) {
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	admissible := func(q, r graph.NodeID) bool {
		return p.Host.Degree(r) >= p.Query.Degree(q) && p.Host.OutDegree(r) >= p.Query.OutDegree(q) &&
			p.NodeFeasible(q, r)
	}
	perArc := make([][]sets.Set, nq) // candidate unions, one per incident arc
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		f, b := make([]sets.Set, nr), make([]sets.Set, nr)
		var heads, tails sets.Set
		for rs := graph.NodeID(0); int(rs) < nr; rs++ {
			for rt := graph.NodeID(0); int(rt) < nr; rt++ {
				if rs != rt && admissible(qe.From, rs) && admissible(qe.To, rt) && p.EdgeFeasible(qe, rs, rt) {
					f[rs] = append(f[rs], rt)
					b[rt] = append(b[rt], rs)
					heads, tails = append(heads, rt), append(tails, rs)
				}
			}
		}
		for r := range b {
			b[r] = sortedSet(b[r])
		}
		fwd, bwd = append(fwd, f), append(bwd, b)
		perArc[qe.To] = append(perArc[qe.To], sortedSet(heads))
		perArc[qe.From] = append(perArc[qe.From], sortedSet(tails))
	}
	base = make([]sets.Set, nq)
	for q := range base {
		if len(perArc[q]) == 0 {
			for r := graph.NodeID(0); int(r) < nr; r++ {
				if admissible(graph.NodeID(q), r) {
					base[q] = append(base[q], r)
				}
			}
			continue
		}
		base[q] = perArc[q][0]
		for _, u := range perArc[q][1:] {
			base[q] = intersectSorted(base[q], u)
		}
	}
	return fwd, bwd, base
}

// matchBruteForce checks every row of f's tables against the pair-by-pair
// ones, and its base sets against base unless base is nil.
func matchBruteForce(t *testing.T, label string, p *Problem, f *Filters, fwd, bwd [][]sets.Set, base []sets.Set) {
	t.Helper()
	for i := range fwd {
		for r := 0; r < p.Host.NumNodes(); r++ {
			if got := f.row(f.tableOf[i].fwd, r); !slices.Equal(got, fwd[i][r]) {
				t.Fatalf("%s: edge %d fwd row %d = %v, want %v", label, i, r, got, fwd[i][r])
			}
			if got := f.row(f.tableOf[i].bwd, r); !slices.Equal(got, bwd[i][r]) {
				t.Fatalf("%s: edge %d bwd row %d = %v, want %v", label, i, r, got, bwd[i][r])
			}
		}
	}
	for q := range base {
		if got := f.Base(graph.NodeID(q)); !slices.Equal(got, base[q]) {
			t.Fatalf("%s: base[%d] = %v, want %v", label, q, got, base[q])
		}
	}
}

// sortedSet sorts s in place and drops duplicates: the ascending form
// Filters.Base and CandidatesGiven list candidate sets in.
func sortedSet(s []int32) sets.Set {
	slices.Sort(s)
	return slices.Compact(s)
}

// intersectSorted returns the members of the sorted set a that b holds.
func intersectSorted(a, b sets.Set) sets.Set {
	return slices.DeleteFunc(slices.Clone(a), func(x int32) bool { return !slices.Contains(b, x) })
}

// row reads table t's row r through CandidatesGiven: the aliased row cut
// to its head's pass.
func (f *Filters) row(t int32, r int) sets.Set {
	for i, et := range f.tableOf {
		qe := f.p.Query.Edge(graph.EdgeID(i))
		tail, head := qe.From, qe.To
		if t == et.bwd {
			tail, head = head, tail
		} else if t != et.fwd {
			continue
		}
		return f.CandidatesGiven(tail, head, graph.NodeID(r))[slices.Index(f.arcTables[arcKey(tail, head)], t)]
	}
	panic(fmt.Sprintf("table %d belongs to no query edge", t))
}

// TestFiltersMatchBruteForce: the bulk-evaluated tables and base sets
// equal the ones built pair by pair from Problem.EdgeFeasible, for random
// constraints — orientation-blind, oriented (rSource/rTarget) and of the
// range-indexed shape — directed and undirected hosts, dense ones whose
// own index answers rangeable programs from arc-slot range indexes
// included, serial and sharded fills, and every index situation:
// none; one built over the problem's host (cached columns, whose range
// indexes arm during the loop); one built over a graph with the same
// structure in other pages and other attributes, whose columns would be
// wrong; and one over a node-attribute sibling of the host (ApplyDelta:
// same IDs and edge pages), whose node columns would be wrong.
func TestFiltersMatchBruteForce(t *testing.T) {
	arcs := 0
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := attributedProblem(t, rng, seed%2 == 0, seed > 120)
		fwd, bwd, base := bruteForceTables(p)

		original := p.Host.Clone()
		all := make([]graph.NodeID, original.NumNodes())
		for r := range all { // same structure, other attributes
			original.Node(graph.NodeID(r)).Attrs = graph.Attrs{}.SetNum("cpu", 9).SetStr("os", "linux")
			all[r] = graph.NodeID(r)
		}
		sibling := attrSibling(t, p.Host, all, graph.Attrs{}.SetNum("cpu", 9).SetBool("reserved", true))
		indexes := map[string]*index.Index{
			"no index":      nil,
			"own index":     index.Build(p.Host, 1, index.Config{}),
			"foreign index": index.Build(original, 1, index.Config{}),
			"sibling index": index.Build(sibling, 1, index.Config{}),
		}
		wantPairs := int64(0)
		if c := p.EdgeConstraint; c != nil {
			wantPairs = int64(p.Query.NumEdges() * p.Host.NumEdges())
			if !p.Host.Directed() && (c.Uses(expr.ObjRSource) || c.Uses(expr.ObjRTarget)) {
				wantPairs *= 2
			}
		}
		for name, idx := range indexes {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("seed %d, %s, workers %d, edge %q, node %q",
					seed, name, workers, p.EdgeConstraint, p.NodeConstraint)
				// Twice, so the second build runs on recycled scratch.
				for pass := 0; pass < 2; pass++ {
					f := BuildFilters(p, &Options{Index: idx, Workers: workers})
					matchBruteForce(t, label, p, f, fwd, bwd, base)
					if got := f.Stats().EdgePairsEval; got != wantPairs {
						t.Fatalf("%s: EdgePairsEval = %d, want %d", label, got, wantPairs)
					}
					f.release()
				}
			}
		}
		if cols := indexes["own index"].ColumnsFor(p.Host); cols.ArcArmed(cols.EdgeColumn("d")) {
			arcs++
		}
	}
	if arcs == 0 {
		t.Fatal("no build took the arc-slot path")
	}
}
