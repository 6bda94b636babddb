package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/sets"
	"netembed/internal/topo"
)

// windowProg accepts host edges whose d attribute falls inside the query
// edge's [lo, hi] window.
var windowProg = expr.MustCompile("rEdge.d >= vEdge.lo && rEdge.d <= vEdge.hi")

// TestFilterRowsAreSortedSets: the rows CandidatesGiven materializes and
// the base sets are ascending and duplicate-free, and the base bitsets the
// searches start from hold exactly the base sets.
func TestFilterRowsAreSortedSets(t *testing.T) {
	isSet := func(s sets.Set) bool {
		return slices.IsSorted(s) && len(slices.Compact(slices.Clone(s))) == len(s)
	}
	for seed := int64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		f := BuildFilters(p, &Options{})
		for ti := range f.tablesB {
			for r := 0; r < p.Host.NumNodes(); r++ {
				if row := f.row(int32(ti), r); !isSet(row) {
					t.Fatalf("seed %d: table %d row %d not a sorted set: %v", seed, ti, r, row)
				}
			}
		}
		for q, base := range f.base {
			if !isSet(base) {
				t.Fatalf("seed %d: base[%d] not a sorted set: %v", seed, q, base)
			}
			if !slices.Equal(f.baseB[q].AppendTo(nil), base) {
				t.Fatalf("seed %d: baseB[%d] disagrees with base", seed, q)
			}
		}
	}
}

// TestFilterCompleteness: every embedding found by the naive reference
// must be consistent with the filters — each node's image in its base
// set, and each edge's image in the corresponding filter row. This is the
// "prunes only infeasible regions" completeness claim of §V-A.
func TestFilterCompleteness(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p := smallProblem(t, seed)
		f := BuildFilters(p, &Options{})
		for _, m := range naiveEmbeddings(p) {
			for q, r := range m {
				if !slices.Contains(f.Base(graph.NodeID(q)), r) {
					t.Fatalf("seed %d: feasible image %d of node %d missing from base set %v",
						seed, r, q, f.Base(graph.NodeID(q)))
				}
			}
			for i := 0; i < p.Query.NumEdges(); i++ {
				qe := p.Query.Edge(graph.EdgeID(i))
				rows := f.CandidatesGiven(qe.From, qe.To, m[qe.From])
				if len(rows) == 0 {
					t.Fatalf("seed %d: no filter table for query edge %d", seed, i)
				}
				for _, row := range rows {
					if !slices.Contains(row, m[qe.To]) {
						t.Fatalf("seed %d: feasible edge image missing from filter row", seed)
					}
				}
			}
		}
	}
}

func TestLooseRootIsSupersetOfTight(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		tight := BuildFilters(p, &Options{})
		loose := BuildFilters(p, &Options{LooseRoot: true})
		for q := 0; q < p.Query.NumNodes(); q++ {
			tb, lb := tight.Base(graph.NodeID(q)), loose.Base(graph.NodeID(q))
			for _, r := range tb {
				if !slices.Contains(lb, r) {
					t.Fatalf("seed %d: tight base of %d has %d missing from loose base", seed, q, r)
				}
			}
		}
	}
}

func TestDegreeFilterPreservesPlantedSolutions(t *testing.T) {
	// With and without the degree filter, solution sets coincide (the
	// filter only removes provably impossible candidates).
	for seed := int64(30); seed <= 40; seed++ {
		p := smallProblem(t, seed)
		with := ECF(p, Options{})
		without := ECF(p, Options{NoDegreeFilter: true})
		sameSolutionSets(t, "degree filter", with.Solutions, without.Solutions)
		// The filtered base sets are never larger.
		fw := BuildFilters(p, &Options{})
		fo := BuildFilters(p, &Options{NoDegreeFilter: true})
		for q := 0; q < p.Query.NumNodes(); q++ {
			if len(fw.Base(graph.NodeID(q))) > len(fo.Base(graph.NodeID(q))) {
				t.Fatalf("seed %d: degree filter grew a base set", seed)
			}
		}
	}
}

func TestSearchOrderModes(t *testing.T) {
	p := smallProblem(t, 5)
	f := BuildFilters(p, &Options{})

	// The literal (unconnected) Lemma-1 sort is monotone in base size.
	unc := searchOrder(f, OrderUnconnected)
	for i := 1; i < len(unc); i++ {
		if len(f.Base(unc[i-1])) > len(f.Base(unc[i])) {
			t.Errorf("unconnected ascending order violated at %d: %d > %d",
				i, len(f.Base(unc[i-1])), len(f.Base(unc[i])))
		}
	}
	desc := searchOrder(f, OrderDescending)
	for i := 1; i < len(desc); i++ {
		if len(f.Base(desc[i-1])) < len(f.Base(desc[i])) {
			t.Errorf("descending order violated at %d", i)
		}
	}
	nat := searchOrder(f, OrderNatural)
	for i, q := range nat {
		if q != graph.NodeID(i) {
			t.Errorf("natural order not identity: %v", nat)
		}
	}
	asc := searchOrder(f, OrderAscending)
	// All orders are permutations.
	for _, order := range [][]graph.NodeID{asc, unc, desc, nat} {
		seen := map[graph.NodeID]bool{}
		for _, q := range order {
			if seen[q] {
				t.Fatalf("order has duplicates: %v", order)
			}
			seen[q] = true
		}
		if len(seen) != p.Query.NumNodes() {
			t.Fatalf("order incomplete: %v", order)
		}
	}
}

// TestConnectedOrderKeepsPrefixConnected: for connected queries, every
// node after the seed must touch the prefix — the property whose absence
// makes the pure Lemma-1 sort blow up on large queries.
func TestConnectedOrderKeepsPrefixConnected(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		p := smallProblem(t, seed)
		if !p.Query.IsConnected() {
			continue
		}
		f := BuildFilters(p, &Options{})
		order := searchOrder(f, OrderAscending)
		placed := map[graph.NodeID]bool{order[0]: true}
		for _, q := range order[1:] {
			touches := false
			for _, a := range p.Query.Arcs(q) {
				if placed[a.To] {
					touches = true
					break
				}
			}
			if !touches {
				t.Fatalf("seed %d: node %d placed with no edge into prefix %v",
					seed, q, order)
			}
			placed[q] = true
		}
		// The seed is a globally most-constrained node.
		for i := 0; i < p.Query.NumNodes(); i++ {
			if len(f.Base(graph.NodeID(i))) < len(f.Base(order[0])) {
				t.Fatalf("seed %d: order seed %d is not minimal", seed, order[0])
			}
		}
	}
}

// TestPostArcsCoverEveryEdgeExactlyOnce: forward checking prunes along
// every query edge exactly once, from the depth of its earlier endpoint.
func TestPostArcsCoverEveryEdgeExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		f := BuildFilters(p, &Options{})
		s := newFCSearcher(p, f, Options{Order: OrderAscending}, nil, time.Now(), false)
		covered := map[int32]bool{}
		for d, posts := range s.posts[:s.nq] {
			for _, pa := range posts {
				if covered[pa.table] {
					t.Fatalf("seed %d: filter table %d used at two depths", seed, pa.table)
				}
				covered[pa.table] = true
				if s.depthOf[pa.head] <= int32(d) {
					t.Fatalf("seed %d: depth %d prunes node %d placed at depth %d", seed, d, pa.head, s.depthOf[pa.head])
				}
			}
		}
		// Exactly one direction of each query edge's two tables fires.
		if got, want := len(covered), p.Query.NumEdges(); got != want {
			t.Fatalf("seed %d: %d tables covered, want %d (one per edge)", seed, got, want)
		}
		s.release()
	}
}

func TestFilterStatsCounters(t *testing.T) {
	p := smallProblem(t, 2)
	f := BuildFilters(p, &Options{})
	st := f.Stats()
	if p.Query.NumEdges() > 0 && st.EdgePairsEval == 0 {
		t.Error("EdgePairsEval = 0")
	}
	if st.FilterBuild <= 0 {
		t.Error("FilterBuild not recorded")
	}
	// Entries are the hosts each table admits for its head: the size of
	// the union of its rows, summed over the tables.
	var want int64
	for ti := range f.tablesB {
		var union sets.Set
		for r := 0; r < p.Host.NumNodes(); r++ {
			union = append(union, f.row(int32(ti), r)...)
		}
		want += int64(len(sortedSet(union)))
	}
	if want == 0 || st.FilterEntries != want {
		t.Errorf("FilterEntries = %d, want %d (> 0)", st.FilterEntries, want)
	}
}

// TestQuickECFMatchesNaive drives random instances through testing/quick:
// for any seed, ECF and the unpruned reference enumerate identical
// solution sets.
func TestQuickECFMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		host := graph.NewUndirected()
		nr := 4 + r.Intn(4)
		for i := 0; i < nr; i++ {
			host.AddNode("", graph.Attrs{}.SetNum("cap", float64(r.Intn(3))))
		}
		for u := 0; u < nr; u++ {
			for v := u + 1; v < nr; v++ {
				if r.Float64() < 0.55 {
					host.MustAddEdge(graph.NodeID(u), graph.NodeID(v),
						graph.Attrs{}.SetNum("d", 1+r.Float64()*99))
				}
			}
		}
		query := graph.NewUndirected()
		nq := 2 + r.Intn(3)
		query.AddNodes(nq)
		for i := 1; i < nq; i++ {
			query.MustAddEdge(graph.NodeID(r.Intn(i)), graph.NodeID(i),
				graph.Attrs{}.SetNum("lo", r.Float64()*50).SetNum("hi", 50+r.Float64()*50))
		}
		p, err := NewProblem(query, host, windowProg, nil)
		if err != nil {
			return false
		}
		want := naiveEmbeddings(p)
		got := ECF(p, Options{})
		return len(solutionSet(got.Solutions)) == len(solutionSet(want)) &&
			len(got.Solutions) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParallelFilterBuildMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		serial := BuildFilters(p, &Options{})
		parallel := BuildFilters(p, &Options{Workers: 4})
		if len(serial.tablesB) != len(parallel.tablesB) {
			t.Fatalf("seed %d: table counts differ", seed)
		}
		for ti := range serial.tablesB {
			for r := 0; r < p.Host.NumNodes(); r++ {
				if !slices.Equal(serial.row(int32(ti), r), parallel.row(int32(ti), r)) {
					t.Fatalf("seed %d: table %d row %d differs", seed, ti, r)
				}
			}
		}
		for q := 0; q < p.Query.NumNodes(); q++ {
			if !slices.Equal(serial.Base(graph.NodeID(q)), parallel.Base(graph.NodeID(q))) {
				t.Fatalf("seed %d: base[%d] differs", seed, q)
			}
		}
		if serial.Stats().EdgePairsEval != parallel.Stats().EdgePairsEval ||
			serial.Stats().FilterEntries != parallel.Stats().FilterEntries {
			t.Fatalf("seed %d: stats differ: %+v vs %+v", seed, serial.Stats(), parallel.Stats())
		}
	}
}

func TestParallelFilterBuildSolutionsAgree(t *testing.T) {
	for seed := int64(50); seed <= 56; seed++ {
		p := smallProblem(t, seed)
		serial := ECF(p, Options{})
		parallel := ECF(p, Options{Workers: 8})
		sameSolutionSets(t, "parallel filter build", parallel.Solutions, serial.Solutions)
	}
}

func TestCandidatesGivenUnrelatedNodes(t *testing.T) {
	p := smallProblem(t, 3)
	f := BuildFilters(p, &Options{})
	// Two query nodes with no edge between them have no filter tables.
	q := p.Query
	for a := graph.NodeID(0); int(a) < q.NumNodes(); a++ {
		for b := graph.NodeID(0); int(b) < q.NumNodes(); b++ {
			if a == b || q.HasEdge(a, b) {
				continue
			}
			if rows := f.CandidatesGiven(a, b, 0); rows != nil {
				t.Fatalf("non-adjacent pair (%d,%d) has filter rows", a, b)
			}
		}
	}
}

func TestIsolatedQueryNodeBaseUsesNodePass(t *testing.T) {
	host := topo.Clique(4)
	for i := 0; i < host.NumNodes(); i++ {
		host.Node(graph.NodeID(i)).Attrs = graph.Attrs{}.SetNum("cpu", float64(i))
	}
	query := graph.NewUndirected()
	query.AddNode("lonely", graph.Attrs{}.SetNum("cpu", 2))
	nodeC := expr.MustCompile("vNode.cpu <= rNode.cpu")
	p, err := NewProblem(query, host, nil, nodeC)
	if err != nil {
		t.Fatal(err)
	}
	f := BuildFilters(p, &Options{})
	base := f.Base(0)
	// cpu >= 2: hosts {2,3}.
	if !slices.Equal(base, sets.Set{2, 3}) {
		t.Errorf("isolated base = %v, want [2 3]", base)
	}
}
