package topo

import (
	"fmt"

	"netembed/internal/graph"
)

// This file builds the adversarial search-engine workloads used by the
// forward-checking engine's property tests and benchmarks: instances whose
// filter matrices look harmless (every query edge individually
// satisfiable, every tight-root base set non-empty) but whose joint
// infeasibility or skewed subtree hardness only surfaces deep in the
// permutations tree — the regime where forward checking's early
// wipeouts, conflict-directed backjumping and work stealing earn their
// keep.

// Pigeonhole builds the no-match instance arc consistency cannot refute:
// the query is K_{n+1}, the host K_n plus one pendant leaf per clique
// node. The leaf lifts every clique node to degree n, so the degree
// filter keeps all n of them for all n+1 query nodes (the leaves
// themselves fall to it), and in K_n every remaining value of every
// domain is supported by every other domain at every node of the search
// tree: the instance stays arc consistent down to the last level and is
// infeasible only by counting — n+1 nodes, n hosts. Forward checking
// enumerates it; arc-consistency propagation runs and deletes nothing.
// It is the measured worst case for propagation that arms and does not
// pay (n ≥ 2).
func Pigeonhole(n int) (query, host *graph.Graph) {
	host = Clique(n)
	for i := 0; i < n; i++ {
		host.MustAddEdge(graph.NodeID(i), host.AddNode("", nil), nil)
	}
	return Clique(n + 1), host
}

// BackjumpAdversary builds a no-match instance that punishes
// chronological backtracking. The host has four pools — A (roots), M (a
// branchy middle the conflict never touches), X and Y — and is
// triangle-free by construction, while the query chains
// q0–q1–…–q_mid through M and hangs a triangle q0–x, x–y, q0–y off the
// root. Every query edge is satisfiable on many host edges and every
// per-arc union covers its full pool (so the tight-root filter build
// cannot refute the query), but the triangle can close nowhere: a
// chronological searcher re-enumerates the entire middle subtree for
// every root before re-discovering the root–triangle conflict, while
// forward checking wipes the triangle out at its first level and
// conflict-directed backjumping vaults the middle levels.
//
// nA must be a positive multiple of 16 (it also sizes the X and Y
// pools); nM must avoid the circulant/spacing collisions checked below;
// mid ≥ 1 is the number of middle chain nodes. The returned host has
// nA·3 + nM nodes and the query mid+3.
func BackjumpAdversary(nA, nM, mid int) (query, host *graph.Graph, err error) {
	if nA <= 0 || nA%16 != 0 {
		return nil, nil, fmt.Errorf("topo: BackjumpAdversary nA=%d must be a positive multiple of 16", nA)
	}
	if mid < 1 {
		return nil, nil, fmt.Errorf("topo: BackjumpAdversary mid=%d must be >= 1", mid)
	}
	if nM < 6 {
		return nil, nil, fmt.Errorf("topo: BackjumpAdversary nM=%d must be >= 6 (the {1,5} circulant needs it)", nM)
	}
	for k := 1; k <= 7; k++ {
		if d := (7 * k) % nM; d == 1 || d == 5 || d == nM-1 || d == nM-5 {
			return nil, nil, fmt.Errorf("topo: BackjumpAdversary A–M spacing collides with the circulant at nM=%d", nM)
		}
	}
	g := graph.NewUndirected()
	nX, nY := nA, nA
	a0 := 0
	m0 := a0 + nA
	x0 := m0 + nM
	y0 := x0 + nX
	g.AddNodes(y0 + nY)
	// M–M: circulant with offsets {1,5} — no a+b=c over ±{1,5}, so no
	// triangles. A–M: each root reaches 8 middle entries spaced 7 apart,
	// and 7k mod nM never lands in ±{1,5} (checked above), so no A–M–M
	// triangle closes either.
	for j := 0; j < nM; j++ {
		g.AddEdge(graph.NodeID(m0+j), graph.NodeID(m0+(j+1)%nM), nil)
		g.AddEdge(graph.NodeID(m0+j), graph.NodeID(m0+(j+5)%nM), nil)
	}
	for i := 0; i < nA; i++ {
		for k := 0; k < 8; k++ {
			g.AddEdge(graph.NodeID(a0+i), graph.NodeID(m0+(i*11+7*k)%nM), nil)
		}
	}
	// A–X: a_i partners x_j for j ≡ i (mod 16); A–Y: a_i – y_i;
	// X–Y: x_j – y_{j+1 mod nY}. For any root a_i and any of its X
	// partners x_j: {y_i} ∩ {y_{j+1}} requires j+1 ≡ i (mod nY), which
	// with j ≡ i (mod 16) would force i-1 ≡ i (mod 16) — impossible, so
	// no A–X–Y triangle closes, while each union still covers its pool.
	for i := 0; i < nA; i++ {
		for j := i % 16; j < nX; j += 16 {
			g.AddEdge(graph.NodeID(a0+i), graph.NodeID(x0+j), nil)
		}
		g.AddEdge(graph.NodeID(a0+i), graph.NodeID(y0+i), nil)
	}
	for j := 0; j < nX; j++ {
		g.AddEdge(graph.NodeID(x0+j), graph.NodeID(y0+(j+1)%nY), nil)
	}

	q := graph.NewUndirected()
	q.AddNodes(mid + 3) // q0, q1..q_mid, x, y
	for i := 0; i < mid; i++ {
		q.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), nil)
	}
	xq, yq := graph.NodeID(mid+1), graph.NodeID(mid+2)
	q.MustAddEdge(0, xq, nil)
	q.MustAddEdge(xq, yq, nil)
	q.MustAddEdge(0, yq, nil)
	return q, g, nil
}

// SeedAttr marks the hosts a SkewedRing query's seed node may map to.
const SeedAttr = "seed"

// SkewedRing builds a skewed-hardness parallel-search instance: an
// odd-length ring query (ringLen must be odd) whose node 0 carries
// SeedAttr (pair it with the node constraint
// "!has(vNode.seed) || has(rNode.seed)"), and a host where exactly one
// seed-marked root owns a combinatorially large — and entirely
// fruitless — subtree, while the other nDecoys seed candidates die
// after a two-visit probe.
//
// The heavy root g0 fans out (window-compatible) into the L side of a
// complete bipartite K_{m,m} whose cross edges are all in window: the
// search walks every alternating L–R path of length ringLen-1, but an
// odd ring closing back onto g0 would need an odd cycle through a
// bipartite graph, so every branch dies deep with zero solutions — and
// the parity conflict chains through adjacent levels, so
// conflict-directed backjumping cannot shortcut it: one-step forward
// checking must search the whole subtree (864,269 nodes at m=16,
// ringLen=7). Arc consistency between the unplaced ring nodes does see
// the parity — the two arcs of the open ring meet in a node whose domain
// must lie in L and in R at once — so once the engine's propagation has
// armed, each second-level subtree ends a few nodes later (5,293 nodes
// for the same instance). Each decoy's only in-window edge leads to
// a pendant stub whose only in-window continuation is back to the
// decoy, so its subtree dies immediately (out-of-window spokes keep
// every seed in the tight-root base set).
//
// Static first-level sharding pins the heavy root (plus a few dead
// decoys) to one worker while the rest of the pool idles; work stealing
// splits g0's second level — the m-way fan into L — across the pool.
// Ring edges should be constrained to the delay window [40, 60].
func SkewedRing(m, nDecoys, ringLen int) (query, host *graph.Graph) {
	good := graph.Attrs{}.SetNum("minDelay", 45).SetNum("avgDelay", 50).SetNum("maxDelay", 55)
	bad := graph.Attrs{}.SetNum("minDelay", 450).SetNum("avgDelay", 500).SetNum("maxDelay", 550)

	g := graph.NewUndirected()
	g.AddNode("", graph.Attrs{}.SetBool(SeedAttr, true)) // node 0: the heavy root
	l0 := 1
	r0 := l0 + m
	for i := 0; i < 2*m; i++ {
		g.AddNode("", nil)
	}
	for u := 0; u < m; u++ {
		g.MustAddEdge(0, graph.NodeID(l0+u), good) // g0 fans into L only
		for v := 0; v < m; v++ {
			g.MustAddEdge(graph.NodeID(l0+u), graph.NodeID(r0+v), good)
		}
	}
	for d := 0; d < nDecoys; d++ {
		decoy := g.AddNode("", graph.Attrs{}.SetBool(SeedAttr, true))
		stub := g.AddNode("", nil)
		g.MustAddEdge(decoy, stub, good)
		// Out-of-window spokes keep degrees above the ring's degree
		// filter without opening any real subtree.
		g.MustAddEdge(decoy, graph.NodeID(l0+d%m), bad)
		g.MustAddEdge(stub, graph.NodeID(r0+d%m), bad)
	}

	q := graph.NewUndirected()
	q.AddNode("", graph.Attrs{}.SetBool(SeedAttr, true))
	for i := 1; i < ringLen; i++ {
		q.AddNode("", nil)
	}
	win := graph.Attrs{}.SetNum("minDelay", 40).SetNum("maxDelay", 60)
	for i := 0; i < ringLen; i++ {
		q.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%ringLen), win)
	}
	return q, g
}
