package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// frozen is a graph as plain data, read through the accessors searches
// use: two graphs are indistinguishable exactly when their frozen forms
// are deeply equal, and a snapshot was never written exactly when it
// still equals the form frozen at publication.
type frozen struct {
	Directed bool
	Nodes    []Node
	Edges    []Edge
	Out, In  [][]Arc
	Names    map[string]NodeID
	Index    map[[2]NodeID]EdgeID
}

func freeze(g *Graph) frozen {
	f := frozen{Directed: g.Directed(), Names: map[string]NodeID{}, Index: map[[2]NodeID]EdgeID{}}
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		n := g.Node(u)
		f.Nodes = append(f.Nodes, Node{Name: n.Name, Attrs: n.Attrs.Clone()})
		f.Out = append(f.Out, append([]Arc{}, g.Arcs(u)...))
		f.In = append(f.In, append([]Arc{}, g.InArcs(u)...))
		if id, ok := g.NodeByName(n.Name); ok {
			f.Names[n.Name] = id
		}
	}
	for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		f.Edges = append(f.Edges, Edge{From: ed.From, To: ed.To, Attrs: ed.Attrs.Clone()})
		if id, ok := g.EdgeBetween(ed.From, ed.To); ok {
			f.Index[[2]NodeID{ed.From, ed.To}] = id
		}
	}
	return f
}

// diff describes the first difference between two frozen graphs, "" when
// there is none. A nil and an empty attribute bag are the same bag.
func (f frozen) diff(o frozen) string {
	if f.Directed != o.Directed || len(f.Nodes) != len(o.Nodes) || len(f.Edges) != len(o.Edges) {
		return fmt.Sprintf("directed=%v with %d nodes and %d edges, want directed=%v with %d and %d",
			f.Directed, len(f.Nodes), len(f.Edges), o.Directed, len(o.Nodes), len(o.Edges))
	}
	for u, n := range f.Nodes {
		switch w := o.Nodes[u]; {
		case n.Name != w.Name || !maps.Equal(n.Attrs, w.Attrs):
			return fmt.Sprintf("node %d = %+v, want %+v", u, n, w)
		case !slices.Equal(f.Out[u], o.Out[u]):
			return fmt.Sprintf("out[%d] = %v, want %v", u, f.Out[u], o.Out[u])
		case !slices.Equal(f.In[u], o.In[u]):
			return fmt.Sprintf("in[%d] = %v, want %v", u, f.In[u], o.In[u])
		}
	}
	for i, e := range f.Edges {
		if w := o.Edges[i]; e.From != w.From || e.To != w.To || !maps.Equal(e.Attrs, w.Attrs) {
			return fmt.Sprintf("edge %d = %+v, want %+v", i, e, w)
		}
	}
	if !maps.Equal(f.Names, o.Names) || !maps.Equal(f.Index, o.Index) {
		return "NodeByName or EdgeBetween answers differ"
	}
	return ""
}

func mustEqual(t *testing.T, what string, got, want frozen) {
	t.Helper()
	if d := got.diff(want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// pagedHost is a random host with nodes named h0.. and the given number
// of edges, every element carrying attributes.
func pagedHost(rng *rand.Rand, directed bool, nodes, edges int) *Graph {
	g := New(directed)
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprintf("h%d", i), Attrs{}.SetNum("cpu", float64(1+rng.Intn(8))).SetStr("os", "linux"))
	}
	for g.NumEdges() < edges {
		u, v := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, Attrs{}.SetNum("delay", float64(rng.Intn(100))).SetBool("up", true))
	}
	return g
}

func refOf(g *Graph, id EdgeID) EdgeRef {
	e := g.Edge(id)
	ref := EdgeRef{Source: g.Node(e.From).Name, Target: g.Node(e.To).Name}
	if !g.Directed() && id%2 == 1 {
		ref.Source, ref.Target = ref.Target, ref.Source // order-insensitive
	}
	return ref
}

func randomEdgeRef(rng *rand.Rand, g *Graph) EdgeRef {
	return refOf(g, EdgeID(rng.Intn(g.NumEdges())))
}

// absentPair returns the names of two distinct nodes with no edge between.
func absentPair(rng *rand.Rand, g *Graph) (string, string) {
	for {
		u, v := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
		if u != v && !g.HasEdge(u, v) && (g.Directed() || !g.HasEdge(v, u)) {
			return g.Node(u).Name, g.Node(v).Name
		}
	}
}

func randomAttrOps(rng *rand.Rand, g *Graph, d *Delta) {
	for k := rng.Intn(4); k >= 0; k-- {
		up := NodeAttrUpdate{Node: g.Node(NodeID(rng.Intn(g.NumNodes()))).Name, Set: Attrs{}.SetNum("cpu", float64(rng.Intn(64)))}
		if rng.Intn(3) == 0 {
			up.Unset = []string{"os", "never-set"}
		}
		d.SetNodeAttrs = append(d.SetNodeAttrs, up)
	}
	for k := rng.Intn(4); k >= 0; k-- {
		ref := randomEdgeRef(rng, g)
		up := EdgeAttrUpdate{Source: ref.Source, Target: ref.Target, Set: Attrs{}.SetNum("delay", float64(rng.Intn(100)))}
		if rng.Intn(3) == 0 {
			up.Unset = []string{"up"}
		}
		d.SetEdgeAttrs = append(d.SetEdgeAttrs, up)
	}
}

// randomDelta draws one delta without node add/remove against g. About one
// in five is invalid, some of those only in their last operation group.
func randomDelta(rng *rand.Rand, g *Graph) *Delta {
	d := &Delta{}
	removes := func() {
		for k := rng.Intn(5); k >= 0; k-- {
			d.RemoveEdges = append(d.RemoveEdges, randomEdgeRef(rng, g)) // may repeat an edge
		}
	}
	adds := func() {
		for k := rng.Intn(5); k >= 0; k-- {
			u, v := absentPair(rng, g)
			dup := false
			for _, a := range d.AddEdges {
				dup = dup || a.Source == u && a.Target == v || a.Source == v && a.Target == u
			}
			if !dup {
				d.AddEdges = append(d.AddEdges, EdgeSpec{Source: u, Target: v, Attrs: Attrs{}.SetNum("delay", float64(rng.Intn(100)))})
			}
		}
	}
	switch rng.Intn(5) {
	case 0:
		randomAttrOps(rng, g, d)
	case 1:
		removes()
	case 2:
		adds()
	case 3: // everything, with an edit to a just-added edge
		removes()
		adds()
		randomAttrOps(rng, g, d)
		a := d.AddEdges[0]
		d.SetEdgeAttrs = append(d.SetEdgeAttrs, EdgeAttrUpdate{Source: a.Target, Target: a.Source, Set: Attrs{}.SetStr("tag", "new"), Unset: []string{"delay"}})
	case 4: // take an edge out and put it back: it moves to the end
		ref := randomEdgeRef(rng, g)
		id, _ := g.edgeByNames(ref.Source, ref.Target)
		src, dst := g.Edge(id).From, g.Edge(id).To
		d.RemoveEdges = []EdgeRef{ref}
		d.AddEdges = []EdgeSpec{{Source: g.Node(src).Name, Target: g.Node(dst).Name, Attrs: g.Edge(id).Attrs}}
	}
	if rng.Intn(5) > 0 {
		return d
	}
	present := randomEdgeRef(rng, g)
	u, v := absentPair(rng, g)
	switch rng.Intn(8) {
	case 0:
		d.RemoveEdges = append(d.RemoveEdges, EdgeRef{Source: u, Target: v})
	case 1:
		d.RemoveEdges = append(d.RemoveEdges, EdgeRef{Source: "nowhere", Target: v})
	case 2:
		d.AddEdges = append(d.AddEdges, EdgeSpec{Source: present.Source, Target: present.Target})
	case 3:
		d.AddEdges = append(d.AddEdges, EdgeSpec{Source: u, Target: u})
	case 4:
		d.AddEdges = append(d.AddEdges, EdgeSpec{Source: u, Target: "nowhere"})
	case 5:
		d.AddEdges = append(d.AddEdges, EdgeSpec{Source: u, Target: v}, EdgeSpec{Source: v, Target: u})
	case 6:
		d.SetNodeAttrs = append(d.SetNodeAttrs, NodeAttrUpdate{Node: "nowhere"})
	case 7: // valid removal, then an edit of the edge it removed
		d.RemoveEdges = append(d.RemoveEdges, present)
		d.SetEdgeAttrs = append(d.SetEdgeAttrs, EdgeAttrUpdate{Source: present.Source, Target: present.Target})
	}
	return d
}

// applyBoth applies d to g through ApplyDelta and through the rebuilding
// oracle and requires the same graph or the same error.
func applyBoth(t *testing.T, what string, g *Graph, d *Delta) *Graph {
	t.Helper()
	next, _ := applyBothFrozen(t, what, g, d)
	return next
}

// applyBothFrozen also returns the result frozen at publication.
func applyBothFrozen(t *testing.T, what string, g *Graph, d *Delta) (*Graph, frozen) {
	t.Helper()
	got, gerr := g.ApplyDelta(d)
	want, werr := g.applyStructuralDelta(d)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if gerr != nil {
		if got != nil {
			t.Fatalf("%s: failed delta returned a graph", what)
		}
		return nil, frozen{}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	f := freeze(got)
	mustEqual(t, what, f, freeze(want))
	return got, f
}

func TestApplyDeltaMatchesRebuildOracle(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := pagedHost(rng, directed, 120, 3*edgePageSize+200)
			chain := []*Graph{g}
			published := []frozen{freeze(g)}
			failures := 0
			for step := 0; step < 40; step++ {
				d := randomDelta(rng, g)
				what := fmt.Sprintf("directed=%v seed %d step %d", directed, seed, step)
				next, f := applyBothFrozen(t, what, g, d)
				if next == nil {
					failures++
					continue
				}
				g = next
				chain = append(chain, g)
				published = append(published, f)
			}
			if failures == 0 || failures == 40 {
				t.Fatalf("%d of 40 deltas failed: the generator lost its mix", failures)
			}
			if g.NumEdges() < 3*edgePageSize {
				t.Fatalf("chain ended with %d edges, below three pages", g.NumEdges())
			}
			// A failed delta is a no-op on its receiver, a successful one
			// on every snapshot before it.
			for i, snap := range chain {
				mustEqual(t, fmt.Sprintf("directed=%v seed %d: snapshot %d after the chain", directed, seed, i), freeze(snap), published[i])
				if err := snap.Validate(); err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
			}
		}
	}
}

func TestApplyDeltaPageBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := pagedHost(rng, false, 100, 2*edgePageSize+10)
	remove := func(ids ...EdgeID) *Delta {
		d := &Delta{}
		for _, id := range ids {
			d.RemoveEdges = append(d.RemoveEdges, refOf(base, id))
		}
		return d
	}
	for name, d := range map[string]*Delta{
		"first record of the graph":  remove(0),
		"last record of page 0":      remove(edgePageSize - 1),
		"first record of page 1":     remove(edgePageSize),
		"both sides of the boundary": remove(edgePageSize, edgePageSize-1),
		"last record of the graph":   remove(EdgeID(base.NumEdges() - 1)),
		"the whole short last page":  remove(2*edgePageSize, 2*edgePageSize+1, 2*edgePageSize+2, 2*edgePageSize+3, 2*edgePageSize+4, 2*edgePageSize+5, 2*edgePageSize+6, 2*edgePageSize+7, 2*edgePageSize+8, 2*edgePageSize+9),
	} {
		applyBoth(t, name, base, d)
	}

	// Pages before the first removed ID are shared, later ones are not.
	next := applyBoth(t, "remove in page 1", base, remove(edgePageSize+5))
	if next.Edge(0) != base.Edge(0) {
		t.Error("page 0 was copied although the removal is in page 1")
	}
	if next.Edge(edgePageSize) == base.Edge(edgePageSize) {
		t.Error("page 1 is shared although an edge left it")
	}

	// An add that exactly fills the last page, then one more.
	g := pagedHost(rng, false, 100, 2*edgePageSize-1)
	for i, wantPages := range []int{2, 3} {
		u, v := absentPair(rng, g)
		prev := g
		g = applyBoth(t, fmt.Sprintf("add %d", i), g, &Delta{AddEdges: []EdgeSpec{{Source: u, Target: v}}})
		if len(g.edges) != wantPages {
			t.Fatalf("add %d: %d pages, want %d", i, len(g.edges), wantPages)
		}
		if g.Edge(0) != prev.Edge(0) {
			t.Errorf("add %d copied page 0", i)
		}
	}

	// Two graphs grown from one parent must not write each other's last
	// page or adjacency rows.
	u1, v1 := absentPair(rng, base)
	left := applyBoth(t, "left add", base, &Delta{AddEdges: []EdgeSpec{{Source: u1, Target: v1}}})
	leftBefore := freeze(left)
	for i := 0; i < 20; i++ {
		u2, v2 := absentPair(rng, base)
		applyBoth(t, "right add", base, &Delta{AddEdges: []EdgeSpec{{Source: u2, Target: v2}, {Source: u1, Target: v1}}})
	}
	mustEqual(t, "left sibling after right adds", freeze(left), leftBefore)

	// Remove and re-add of one edge in one delta: it takes the last ID.
	ref := refOf(base, 17)
	moved := applyBoth(t, "remove then re-add", base, &Delta{
		RemoveEdges: []EdgeRef{ref},
		AddEdges:    []EdgeSpec{{Source: ref.Source, Target: ref.Target, Attrs: Attrs{}.SetNum("delay", 1)}},
	})
	if id, _ := moved.edgeByNames(ref.Source, ref.Target); int(id) != moved.NumEdges()-1 {
		t.Errorf("re-added edge has ID %d, want %d", id, moved.NumEdges()-1)
	}
}

func TestAttrDeltaCopiesOnlyWhatItWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := pagedHost(rng, false, 100, 3*edgePageSize)
	ref := refOf(g, edgePageSize+1)
	next := applyBoth(t, "edge attr", g, &Delta{SetEdgeAttrs: []EdgeAttrUpdate{{Source: ref.Source, Target: ref.Target, Set: Attrs{}.SetNum("delay", -1)}}})
	for p, shared := range []bool{true, false, true} {
		id := EdgeID(p * edgePageSize)
		if (next.Edge(id) == g.Edge(id)) != shared {
			t.Errorf("page %d shared = %v, want %v", p, !shared, shared)
		}
	}
	if next.Node(0) != g.Node(0) {
		t.Error("an edge-only attribute delta copied the node records")
	}
	next = applyBoth(t, "node attr", g, &Delta{SetNodeAttrs: []NodeAttrUpdate{{Node: "h3", Set: Attrs{}.SetNum("cpu", 0)}}})
	if next.Node(0) == g.Node(0) || next.Edge(0) != g.Edge(0) {
		t.Error("a node-only attribute delta must copy the node records and no edge page")
	}
}

// TestSnapshotsReadableWhileDeltasChain is for the race detector: readers
// walk every snapshot published so far while a writer derives new ones.
func TestSnapshotsReadableWhileDeltasChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := pagedHost(rng, false, 100, 3*edgePageSize+50)
	var (
		mu        sync.Mutex
		snapshots = []*Graph{g}
		done      = make(chan struct{})
		wg        sync.WaitGroup
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var col Column
			var from, to []NodeID
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				snap := snapshots[(i*7+r)%len(snapshots)]
				mu.Unlock()
				sum := 0
				for e := EdgeID(0); int(e) < snap.NumEdges(); e++ {
					sum += int(snap.Edge(e).From) + len(snap.Edge(e).Attrs)
				}
				for u := NodeID(0); int(u) < snap.NumNodes(); u++ {
					for _, a := range snap.Arcs(u) {
						sum += int(snap.Edge(a.Edge).To)
					}
					sum += len(snap.Node(u).Attrs)
				}
				snap.EdgeColumn("delay", &col)
				from, to = snap.Endpoints(from[:0], to[:0])
				if len(from) != snap.NumEdges() || len(to) != len(from) || sum < 0 {
					t.Errorf("reader %d: %d endpoints for %d edges", r, len(from), snap.NumEdges())
					return
				}
			}
		}(r)
	}
	for step := 0; step < 150; step++ {
		next, err := g.ApplyDelta(randomDelta(rng, g))
		if err != nil {
			continue
		}
		g = next
		mu.Lock()
		snapshots = append(snapshots, g)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesRenumberingSlips(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fresh := func() *Graph { return pagedHost(rng, true, 40, edgePageSize+20) }

	g := fresh()
	g.out[g.Edge(5).From][0].Edge++ // an arc naming its neighbour's edge
	if g.Validate() == nil {
		t.Error("an arc pointing at the wrong edge passed")
	}
	g = fresh()
	g.in[g.Edge(5).To][0].To = g.Edge(5).To // in-arc with the wrong tail
	if g.Validate() == nil {
		t.Error("an in-arc with the wrong endpoint passed")
	}
	g = fresh()
	g.edges = [][]Edge{g.edges[0][:edgePageSize-1], append(g.edges[0][edgePageSize-1:], g.edges[1]...)}
	if g.Validate() == nil {
		t.Error("a short page before the last passed")
	}
	if err := fresh().Validate(); err != nil {
		t.Fatal(err)
	}
}
