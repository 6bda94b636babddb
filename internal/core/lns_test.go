package core

import (
	"fmt"
	"testing"
	"time"

	"netembed/internal/graph"
	"netembed/internal/topo"
)

// newLNS builds an initialized LNS searcher for white-box heuristic tests.
func newLNS(t *testing.T, q, h *graph.Graph) *lnsSearcher {
	t.Helper()
	p, err := NewProblem(q, h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &lnsSearcher{
		p:       p,
		opt:     Options{},
		nq:      q.NumNodes(),
		nr:      h.NumNodes(),
		started: time.Now(),
	}
	s.init()
	return s
}

// TestLNSSeedIsMaxDegree verifies paper heuristic 1: the first vertex
// moved to Covered is the largest-degree query node.
func TestLNSSeedIsMaxDegree(t *testing.T) {
	q := topo.Star(5) // hub 0 has degree 4
	h := topo.Clique(6)
	s := newLNS(t, q, h)
	seed := s.pickNext()
	if s.state[seed] != lnsExternal {
		t.Fatal("first pick is not a seed from the external set")
	}
	if seed != 0 {
		t.Errorf("seed = %d, want the hub 0", seed)
	}
}

// TestLNSPickNextPrefersMostCoveredLinks verifies paper heuristic 2: the
// next vertex is the neighbor with the most links into the covered set.
func TestLNSPickNextPrefersMostCoveredLinks(t *testing.T) {
	// Query: nodes 0,1 covered; node 2 adjacent to both; node 3 adjacent
	// to only one.
	q := graph.NewUndirected()
	q.AddNodes(4)
	q.MustAddEdge(0, 1, nil)
	q.MustAddEdge(0, 2, nil)
	q.MustAddEdge(1, 2, nil)
	q.MustAddEdge(1, 3, nil)
	h := topo.Clique(6)
	s := newLNS(t, q, h)

	undo0 := s.cover(0, 0)
	undo1 := s.cover(1, 1)
	next := s.pickNext()
	if s.state[next] != lnsNeighbor {
		t.Fatal("pick after covering should come from the frontier")
	}
	if next != 2 {
		t.Errorf("next = %d, want 2 (two links to covered vs one)", next)
	}
	undo1()
	// With only node 0 covered, nodes 1 and 2 tie on links (1 each);
	// the higher-degree node 1 (degree 3) wins over node 2 (degree 2).
	next = s.pickNext()
	if next != 1 {
		t.Errorf("after undo, next = %d, want 1 (degree tiebreak)", next)
	}
	undo0()
	// Fully undone: seeding again from scratch.
	if seed := s.pickNext(); s.state[seed] != lnsExternal {
		t.Error("after full undo pickNext should reseed")
	}
}

// TestLNSCoverUndoRestoresState: cover/undo is an exact inverse on the
// frontier bookkeeping.
func TestLNSCoverUndoRestoresState(t *testing.T) {
	q := topo.Ring(5)
	h := topo.Clique(7)
	s := newLNS(t, q, h)

	snapshotLinks := append([]int(nil), s.links...)
	snapshotState := append([]lnsState(nil), s.state...)

	undo2 := s.cover(2, 4)
	if s.state[2] != lnsCovered || s.assign[2] != 4 {
		t.Fatal("cover did not apply")
	}
	if s.state[1] != lnsNeighbor || s.state[3] != lnsNeighbor {
		t.Fatal("neighbors not promoted")
	}
	if s.links[1] != 1 || s.links[3] != 1 {
		t.Fatalf("links = %v", s.links)
	}
	undo3 := s.cover(3, 5)
	if s.links[2] != 1 || s.links[4] != 1 {
		t.Fatalf("links after second cover = %v", s.links)
	}
	undo3()
	undo2()

	for i := range snapshotLinks {
		if s.links[i] != snapshotLinks[i] {
			t.Fatalf("links not restored: %v", s.links)
		}
		if s.state[i] != snapshotState[i] {
			t.Fatalf("state not restored: %v", s.state)
		}
	}
	if s.covered != 0 {
		t.Fatal("covered not restored")
	}
	for _, a := range s.assign {
		if a != -1 {
			t.Fatal("assign not restored")
		}
	}
}

// TestLNSDomainsIntersectCoveredImages: covering a node forward-checks
// its uncovered neighbors, so a node adjacent to two covered images can
// only take their common unused host neighbors — narrower than either
// image's neighborhood.
func TestLNSDomainsIntersectCoveredImages(t *testing.T) {
	q := topo.Line(3) // 0-1-2
	h := graph.NewUndirected()
	h.AddNodes(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 3}, {0, 5}, {2, 1}, {2, 4}, {2, 5}, {3, 4}} {
		h.MustAddEdge(e[0], e[1], nil)
	}
	s := newLNS(t, q, h)
	// Cover query 0 -> host 0 (neighbors 1, 3, 5) and query 2 -> host 2
	// (neighbors 1, 4, 5), pruning as the search does.
	for _, c := range [][2]graph.NodeID{{0, 0}, {2, 2}} {
		if !s.fcPrune(c[0], c[1]) {
			t.Fatalf("covering %d -> %d wiped a domain out", c[0], c[1])
		}
		s.cover(c[0], c[1])
	}
	if got := s.ds.dom[1].AppendTo(nil); fmt.Sprint(got) != "[1 5]" {
		t.Errorf("domain of query node 1 = %v, want [1 5]", got)
	}
}

// TestLNSTimeToFirstExcludesNoBuildPhase: LNS has no filter-construction
// phase, so its first solution on an easy instance arrives in
// microseconds — the Fig 13b/14 advantage.
func TestLNSTimeToFirstIsImmediate(t *testing.T) {
	host := topo.Clique(30)
	q := topo.Ring(4)
	p, err := NewProblem(q, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := LNS(p, Options{MaxSolutions: 1})
	if len(res.Solutions) != 1 {
		t.Fatal("no solution")
	}
	if res.Stats.TimeToFirst > 50*time.Millisecond {
		t.Errorf("LNS first took %v, expected near-immediate", res.Stats.TimeToFirst)
	}
	if res.Stats.FilterBuild != 0 {
		t.Errorf("LNS reported filter build time %v", res.Stats.FilterBuild)
	}
}
