package core

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// This file is the forward-checking search engine with conflict-directed
// backjumping (FC-CBJ) that backs ECF, RWB, DynamicECF and ParallelECF.
//
// A chronological searcher recomputes the candidate set of the node at
// depth d on every visit by re-intersecting the filter rows of all its
// earlier-placed neighbors: O(#earlier-neighbors × full row
// intersection) per visit, paid again for every sibling assignment. The
// FC engine inverts the bookkeeping: every unassigned query node carries
// a live domain bitset, and *assigning* a node AND-prunes only the
// domains of its not-yet-assigned neighbors — O(#future-neighbors × one
// word-parallel AND). Materializing a depth's candidates is then one
// word-wise subtraction of the in-use marks and a bitset-to-slice
// conversion. Mutations are undone through a trail of (node, saved word
// span) entries, so backtracking restores exact domain state without
// recomputation. (Injectivity is deliberately not propagated into the
// domains per assignment: an O(nq) clear loop per visit costs more than
// it prunes, so used-blocking is applied at materialization and folded
// into the conflict sets lazily at dead ends.)
//
// A domain that empties during pruning is a wipeout: the current
// assignment provably cannot extend to a solution, and the search
// rejects it *before* descending. On top of the trail the engine keeps
// per-node conflict sets (pastFC: which depths pruned this node's
// domain) and per-depth conflict sets (conf: why values at this depth
// failed). When every value at depth d fails, the engine backjumps
// straight to the deepest level that contributed to any failure instead
// of enumerating the levels in between (Prosser's FC-CBJ). Because the
// engine enumerates *all* solutions, any subtree that produced a
// solution backtracks chronologically — jumping is only ever applied to
// provably solution-free subtrees, which keeps enumeration complete and,
// in static mode, the solution sequence the lexicographic one over the
// variable order with ascending values — the sequence the brute-force
// oracle in oracle_test.go pins.
//
// One-step forward checking looks only from the node just placed to its
// neighbors. A search that keeps failing without progress additionally
// maintains arc consistency *between* the unassigned nodes (propagate):
// a value of y that no value left in a neighboring domain supports is
// deleted, and a domain emptied that way is a wipeout like any other.
// Such deletions ride the same trail, and y's conflict set takes over
// the conflict set of the domain that stopped supporting it, so jumps
// stay sound. Propagation only removes values that head no solution, so
// the solution sequence is unchanged; it is armed by failure rather than
// always on because a fixpoint costs far more than the forward check it
// follows (see acArmWipeouts).

// postArc names one filter table constraining a later-placed neighbor,
// fed by the node expanded at the current depth.
type postArc struct {
	head  graph.NodeID // the not-yet-placed query neighbor
	table int32
}

// fcTrailEntry records one domain mutation: the words overwritten (a
// span in the shared arena), the previous cardinality, and how undo puts
// the node's pastFC row back — by clearing the pruning depth's bit when
// a row prune was that depth's first touch of the domain (clearFC), or
// by copying back the whole row an arc revision saved behind the domain
// words (savedFC).
type fcTrailEntry struct {
	node      int32
	w0        int32 // first saved word index
	nw        int32 // saved word count
	off       int32 // offset into the arena
	prevCount int32
	clearFC   bool
	savedFC   bool
}

// fcSearcher is the state of one FC-CBJ search. Static mode fixes the
// variable order up front (ECF/RWB); dynamic mode re-selects the
// unassigned node with the smallest live domain at every depth
// (DynamicECF's most-constrained-variable rule, now O(nq) reads of the
// maintained counts instead of a full re-intersection per open node).
type fcSearcher struct {
	p       *Problem
	f       *Filters
	opt     Options
	rng     *rand.Rand // nil for ECF, set for RWB
	dynamic bool

	nq      int
	nr      int
	words   int // words per host-universe bitset
	fcWords int // words per depth-universe (pastFC/conf) bitset

	order   []graph.NodeID // order[d] = node expanded at depth d
	depthOf []int32        // node -> depth, -1 while unassigned
	posts   [][]postArc    // static mode: tables feeding later depths

	assign   Mapping
	used     *sets.Bitset  // hosts held by assigned nodes
	dom      []sets.Bitset // live domain per query node
	domCount []int32
	// candBits is scratch over the host universe: materialize builds
	// dom ∧ ¬used in it, and between materializations revise collects a
	// domain's unsupported values there.
	candBits *sets.Bitset

	trail []fcTrailEntry
	arena []uint64

	// Conflict sets over the depth universe [0, nq).
	pastFC  []sets.Bitset // pastFC[node]: depths that pruned node's domain
	conf    []sets.Bitset // conf[d]: why values at depth d failed
	jumpBuf *sets.Bitset

	scratch [][]int32 // per-depth candidate buffers

	// Arc-consistency propagation (see propagate). failures counts the
	// wipeouts since the search last made progress; once it reaches
	// armAfter every successful forward check is followed by an AC-3
	// fixpoint over the unassigned nodes.
	failures int64
	armAfter int64
	acWork   []graph.NodeID // worklist of nodes whose domain shrank
	acQueued []bool         // node is on acWork

	// Pool-recycled backing storage (see pool.go): the shared words of
	// the dom/pastFC/conf bitset tables, and the post-arc dedup stamp.
	domBacking  []uint64
	pastBacking []uint64
	confBacking []uint64
	stamp       *tableStamp

	stopClock
	stopped bool

	// Branch-and-bound state (Options.Optimize; see objective.go). The
	// incremental partial cost rides the expand stack in costAt exactly
	// like domain words ride the trail: costAt[d+1] is written before
	// descending and simply abandoned on backtrack. Per-node lower
	// bounds are cached per domain generation — domGen[q] bumps on every
	// prune or undo touching q's domain, invalidating lbVal[q].
	optimize  bool
	obj       *objectiveEval
	costAt    []float64
	lbVal     []float64
	lbGen     []uint32
	domGen    []uint32
	bbShared  *atomic.Uint64 // ParallelECF's shared incumbent (Float64bits), nil sequentially
	incumbent float64        // best cost seen locally (+Inf until the first solution)
	best      Mapping        // incumbent mapping (recycled buffer; clone to return)
	hasBest   bool

	started   time.Time
	solutions []Mapping
	nSol      int
	stats     Stats
}

func newFCSearcher(p *Problem, f *Filters, opt Options, rng *rand.Rand, start time.Time, dynamic bool) *fcSearcher {
	nq, nr := p.Query.NumNodes(), p.Host.NumNodes()
	s := acquireFCSearcher()
	s.p, s.f, s.opt, s.rng, s.dynamic = p, f, opt, rng, dynamic
	s.nq, s.nr, s.words, s.fcWords = nq, nr, (nr+63)/64, (nq+63)/64
	s.assign = grow(s.assign, nq)
	s.depthOf = grow(s.depthOf, nq)
	s.scratch = grow(s.scratch, nq)
	s.trail = s.trail[:0]
	s.arena = s.arena[:0]
	s.failures = 0
	s.acWork = grow(s.acWork, nq)[:0]
	s.acQueued = grow(s.acQueued, nq)
	clear(s.acQueued)
	s.stopped = false
	s.solutions = nil
	s.nSol = 0
	s.started = start
	s.stats = f.Stats()
	s.optimize = opt.Optimize && opt.Objective.Enabled()
	s.obj = nil
	s.bbShared = nil
	s.hasBest = false
	s.incumbent = math.Inf(1)
	if s.optimize {
		s.obj = compileObjective(opt.Objective, p.Host)
		s.costAt = grow(s.costAt, nq+1)
		s.costAt[0] = 0
		if !s.obj.additive && nq > 0 {
			// Max composition seeds at -Inf so the first folded term wins
			// outright, mirroring Cost's i==0 case; a zero seed would
			// absorb all-negative terms (load balance with Weight < 0) and
			// fake a 0-cost optimum. The empty query keeps the 0 seed:
			// Cost of the empty mapping is 0.
			s.costAt[0] = math.Inf(-1)
		}
		s.lbVal = grow(s.lbVal, nq)
		s.lbGen = grow(s.lbGen, nq)
		s.domGen = grow(s.domGen, nq)
		for q := 0; q < nq; q++ {
			s.lbGen[q] = ^uint32(0) // invalid: never matches a generation
			s.domGen[q] = 0
		}
		s.best = s.best[:0]
	}
	for i := range s.assign {
		s.assign[i] = -1
		s.depthOf[i] = -1
	}
	s.dom, s.domBacking = sets.ReuseBitsets(s.dom, s.domBacking, nr, nq)
	s.domCount = grow(s.domCount, nq)
	for q := 0; q < nq; q++ {
		s.dom[q].CopyFrom(f.baseB[q])
		s.domCount[q] = int32(len(f.base[q]))
	}
	s.armAfter = max(acArmAfter, acArmAfter*s.revisionPassCost()/acArmWipeouts)
	s.used = sets.ReuseBitset(s.used, nr)
	s.candBits = sets.ReuseBitset(s.candBits, nr)
	s.pastFC, s.pastBacking = sets.ReuseBitsets(s.pastFC, s.pastBacking, nq, nq)
	s.conf, s.confBacking = sets.ReuseBitsets(s.conf, s.confBacking, nq, nq)
	s.jumpBuf = sets.ReuseBitset(s.jumpBuf, nq)
	s.arm(start, opt.Timeout, opt.Stop)
	if dynamic {
		s.order = grow(s.order, nq)
	} else {
		s.order = searchOrderInto(s.order[:0], f, opt.Order)
		for d, q := range s.order {
			s.depthOf[q] = int32(d)
		}
		s.buildPosts()
	}
	return s
}

// buildPosts precomputes, for each depth, the filter tables whose tail
// is the depth's node and whose head the order places later — the
// domains forward checking prunes when the node is assigned. The tables
// are deduplicated with a stamp mask over table IDs, reading the
// position of each node from the already-populated depthOf and recycling
// the per-depth slices across pooled searches. Every query edge appears
// at exactly one depth: the one where its earlier endpoint is expanded.
func (s *fcSearcher) buildPosts() {
	p, f := s.p, s.f
	nTables := len(f.tablesB)
	if s.stamp == nil {
		s.stamp = newTableStamp(nTables)
	} else {
		s.stamp.reset(nTables)
	}
	s.posts = grow(s.posts, s.nq)
	for d, q := range s.order {
		s.stamp.next()
		post := s.posts[d][:0]
		add := func(nbr graph.NodeID) {
			if s.depthOf[nbr] <= int32(d) {
				return
			}
			for _, t := range f.arcTables[arcKey(q, nbr)] {
				if s.stamp.mark(t) {
					post = append(post, postArc{head: nbr, table: t})
				}
			}
		}
		for _, a := range p.Query.Arcs(q) {
			add(a.To)
		}
		if p.Query.Directed() {
			for _, a := range p.Query.InArcs(q) {
				add(a.To)
			}
		}
		// Prune deepest-first: the latest-ordered neighbor has been
		// intersected by the most ancestors already, so its domain is the
		// likeliest to wipe out — detecting that before paying for the
		// remaining prunes shortens every failed assignment.
		sort.Slice(post, func(a, b int) bool {
			return s.depthOf[post[a].head] > s.depthOf[post[b].head]
		})
		s.posts[d] = post
	}
}

// run drives the search from the root. The return value of search is a
// backjump target; at the root it only signals termination.
func (s *fcSearcher) run() {
	s.search(0)
}

// undoTo pops trail entries down to mark, restoring domain words, counts
// and pastFC rows for the pruning depth d. The arena shrinks back to
// amark.
func (s *fcSearcher) undoTo(mark, amark, d int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := &s.trail[i]
		s.dom[e.node].RestoreSpan(s.arena[e.off:e.off+e.nw], int(e.w0))
		s.domCount[e.node] = e.prevCount
		if e.savedFC {
			s.pastFC[e.node].RestoreSpan(s.arena[e.off+e.nw:e.off+e.nw+int32(s.fcWords)], 0)
		} else if e.clearFC {
			s.pastFC[e.node].Clear(int32(d))
		}
		if s.optimize {
			s.domGen[e.node]++ // domain changed back: cached lower bound is stale
		}
	}
	s.trail = s.trail[:mark]
	s.arena = s.arena[:amark]
}

// wipeout records that assigning at depth d emptied node q's domain: the
// depths that pruned q are exactly the reasons this value fails.
func (s *fcSearcher) wipeout(d int, q graph.NodeID) {
	s.failures++
	s.stats.Wipeouts++
	s.stats.WipeoutDepthSum += int64(d)
	s.conf[d].UnionWith(&s.pastFC[q])
}

// pruneRow ANDs one filter row into a future neighbor's domain and
// reports false on wipeout. A nil/empty row empties the domain outright.
// It is the forward-checking half of Stats.PruneOps; revise is the other.
//
// Static mode skips the cardinality maintenance (nothing reads counts —
// wipeouts are detected by emptiness and MRV does not run) and records
// the pruning depth in pastFC whether or not the AND removed anything:
// the arc exists, so the conservative conflict entry only shortens
// jumps, never breaks them. Dynamic mode pays the popcount to keep the
// live domain sizes the MRV pick reads, and keeps pastFC exact.
func (s *fcSearcher) pruneRow(d int, head graph.NodeID, table, r int32) bool {
	s.stats.PruneOps++
	dm := &s.dom[head]
	off := len(s.arena)
	prev := s.domCount[head]

	// An aliased adjacency row, not cut to head's pass: dm lies inside
	// that pass, so every AND below reads what the cut row would.
	row := s.f.tablesB[table][r]

	// Read-only wipeout probe first: a prune that would empty the domain
	// rejects the assignment without mutating anything — no save, no
	// trail entry, nothing to undo — and in the common non-empty case the
	// probe usually answers from the first word.
	if row == nil || !dm.Intersects(row) {
		s.wipeout(d, head)
		return false
	}

	if !s.dynamic {
		s.arena, _ = dm.IntersectSave(s.arena, row) // non-empty by the probe
		clearFC := !s.pastFC[head].Has(int32(d))
		if clearFC {
			s.pastFC[head].Set(int32(d))
		}
		s.trail = append(s.trail, fcTrailEntry{
			node: int32(head), w0: 0, nw: int32(s.words), off: int32(off),
			prevCount: prev, clearFC: clearFC,
		})
		if s.optimize {
			s.domGen[head]++
		}
		return true
	}

	s.arena = dm.SaveSpan(s.arena, 0, s.words)
	cnt := dm.IntersectCount(row)
	if cnt == int(prev) {
		// Nothing removed: this depth did not constrain head, so it must
		// not enter head's conflict set; drop the trail entry too.
		s.arena = s.arena[:off]
		return true
	}
	clearFC := false
	if !s.pastFC[head].Has(int32(d)) {
		s.pastFC[head].Set(int32(d))
		clearFC = true
	}
	s.trail = append(s.trail, fcTrailEntry{
		node: int32(head), w0: 0, nw: int32(s.words), off: int32(off),
		prevCount: prev, clearFC: clearFC,
	})
	if s.optimize {
		s.domGen[head]++
	}
	s.domCount[head] = int32(cnt)
	if cnt == 0 {
		s.wipeout(d, head)
		return false
	}
	return true
}

// forwardCheck propagates the assignment node ↦ r made at depth d: the
// filter rows toward every unassigned neighbor AND-prune that
// neighbor's domain, and — once the search is armed (see acArmWipeouts)
// — an arc-consistency fixpoint runs over the domains that are left. It
// reports false as soon as any future domain wipes out; the caller
// undoes via its trail mark. Injectivity is NOT propagated eagerly — the
// in-use marks are subtracted word-wise when a depth materializes its
// candidates, and the blocked-by-used conflict term is reconstructed
// lazily at dead ends (see expand) — because an O(nq) per-assignment
// clear loop costs more than it prunes.
func (s *fcSearcher) forwardCheck(d int, node graph.NodeID, r int32) bool {
	if d <= 1 {
		// Progress: a new (root, second-level) subtree starts disarmed, so
		// what is propagated below it depends only on the position inside
		// it — never on how ParallelECF's stealing cut the tree.
		s.failures = 0
	}
	if s.dynamic {
		prune := func(nbr graph.NodeID) bool {
			if s.depthOf[nbr] >= 0 {
				return true
			}
			for _, t := range s.f.arcTables[arcKey(node, nbr)] {
				if !s.pruneRow(d, nbr, t, r) {
					return false
				}
			}
			return true
		}
		for _, a := range s.p.Query.Arcs(node) {
			if !prune(a.To) {
				return false
			}
		}
		if s.p.Query.Directed() {
			for _, a := range s.p.Query.InArcs(node) {
				if !prune(a.To) {
					return false
				}
			}
		}
	} else {
		for _, pa := range s.posts[d] {
			if !s.pruneRow(d, pa.head, pa.table, r) {
				return false
			}
		}
	}
	return s.failures < s.armAfter || s.propagate(d, node)
}

// acArmWipeouts is the least number of wipeouts the search must record
// without progress — no complete assignment, no new placement at depth
// ≤ 1 — before forward checking is followed by arc-consistency
// propagation. A wipeout is one read-only row probe (≈24 ns), so 256 of
// them are ≈6 µs of forward checking: what a propagation fixpoint costs
// on the instances it was sized on (a 7-ring or an 8-node query on the
// paper-sized host, where one pass over the arcs is a few hundred row
// operations). Larger instances scale it: the threshold a searcher uses
// is one wipeout per row operation a revision pass can cost, and never
// under 256 (revisionPassCost; 44,452 for a 24-node query on a 512-site
// host, where a fixpoint was measured at ≈130 µs and arming after 256
// took the search from 44 to 290 ms). A search that makes progress never
// pays for propagation; one that keeps failing has by then wasted on
// forward checking about what its first fixpoint costs. Always-on
// propagation was measured and rejected (README, "Search engine").
const acArmWipeouts = 256

// acArmAfter is what new searchers scale their threshold from; only
// tests change it (0: propagate at every node, 1: after the first few
// wipeouts), to reach the propagation code on instances too small to
// fail 256 times.
var acArmAfter int64 = acArmWipeouts

// revisionPassCost bounds the row operations of revising every arc
// between query nodes once over the initial domains: revise(y ← x)
// subtracts at most one filter row per value of x's domain.
func (s *fcSearcher) revisionPassCost() int64 {
	var ops int64
	for q := 0; q < s.nq; q++ {
		deg := len(s.p.Query.Arcs(graph.NodeID(q)))
		if s.p.Query.Directed() {
			deg += len(s.p.Query.InArcs(graph.NodeID(q)))
		}
		ops += int64(deg) * int64(s.domCount[q])
	}
	return ops
}

// propagate makes the unassigned nodes' domains arc consistent after the
// placement of node at depth d (AC-3 over nodes: Sabin & Freuder's MAC,
// with the bit-parallel revise of Lecoutre & Vion). The worklist holds
// nodes whose domain shrank; it starts from the future neighbors of node,
// whose domains forward checking just pruned, so an arc whose tail has
// not changed since the search armed is never revised. It reports false
// on a wipeout.
func (s *fcSearcher) propagate(d int, node graph.NodeID) bool {
	s.eachFutureNbr(d, node, func(y graph.NodeID) bool {
		s.enqueue(y)
		return true
	})
	ok := true
	for ok && len(s.acWork) > 0 {
		x := s.acWork[len(s.acWork)-1]
		s.acWork = s.acWork[:len(s.acWork)-1]
		s.acQueued[x] = false
		ok = s.eachFutureNbr(d, x, func(y graph.NodeID) bool {
			for _, t := range s.f.arcTables[arcKey(x, y)] {
				if !s.revise(d, x, y, t) {
					return false
				}
			}
			return true
		})
	}
	for _, q := range s.acWork { // left over by a wipeout
		s.acQueued[q] = false
	}
	s.acWork = s.acWork[:0]
	return ok
}

// eachFutureNbr calls fn for the query neighbors of x still unassigned
// below depth d, until fn returns false, and reports whether it never
// did. Static mode has every depthOf filled in up front, dynamic mode
// only the assigned ones.
func (s *fcSearcher) eachFutureNbr(d int, x graph.NodeID, fn func(y graph.NodeID) bool) bool {
	visit := func(arcs []graph.Arc) bool {
		for _, a := range arcs {
			if dd := s.depthOf[a.To]; (dd < 0 || int(dd) > d) && !fn(a.To) {
				return false
			}
		}
		return true
	}
	return visit(s.p.Query.Arcs(x)) && (!s.p.Query.Directed() || visit(s.p.Query.InArcs(x)))
}

// enqueue puts y on the propagation worklist unless it is there already.
func (s *fcSearcher) enqueue(y graph.NodeID) {
	if !s.acQueued[y] {
		s.acQueued[y] = true
		s.acWork = append(s.acWork, y)
	}
}

// revise deletes from y's domain every value no value of x's domain
// supports through filter table t (tail x, head y): the supported values
// are the union of the table's rows over x's domain, subtracted row by
// row from a copy of y's domain until nothing is left to support. A
// domain that lost values is queued; false means it lost all of them.
//
// Values go through the same trail as row prunes. y's conflict row takes
// x's and the current depth — x's domain is what the depths in its row
// made it, so they are why y's values lost their support; charging depth
// d as well keeps the entry undone with the depth that logged it — and
// the previous row is saved behind the domain words.
func (s *fcSearcher) revise(d int, x, y graph.NodeID, t int32) bool {
	s.stats.PruneOps++
	dx, dy, rem := &s.dom[x], &s.dom[y], s.candBits
	rem.CopyFrom(dy)
	left := true
	dx.ForEach(func(a int32) bool {
		// rem ⊆ y's domain ⊆ y's pass: the aliased row subtracts exactly
		// what the row cut to that pass would.
		if row := s.f.tablesB[t][a]; row != nil {
			left = rem.AndNotWith(row)
		}
		return left
	})
	if !left {
		return true // every value of y is supported
	}
	off := len(s.arena)
	s.arena = dy.SaveSpan(s.arena, 0, s.words)
	s.arena = s.pastFC[y].SaveSpan(s.arena, 0, s.fcWords)
	s.trail = append(s.trail, fcTrailEntry{
		node: int32(y), w0: 0, nw: int32(s.words), off: int32(off),
		prevCount: s.domCount[y], savedFC: true,
	})
	alive := dy.AndNotWith(rem)
	s.pastFC[y].UnionWith(&s.pastFC[x])
	s.pastFC[y].Set(int32(d))
	if s.dynamic {
		s.domCount[y] -= int32(rem.Count())
	}
	if s.optimize {
		s.domGen[y]++
	}
	if !alive {
		s.wipeout(d, y)
		return false
	}
	s.enqueue(y)
	return true
}

// pickMRV returns the unassigned node with the smallest live domain
// (ties to the lowest node ID).
func (s *fcSearcher) pickMRV() graph.NodeID {
	best := graph.NodeID(-1)
	bestCount := int32(0)
	for q := 0; q < s.nq; q++ {
		if s.depthOf[q] >= 0 {
			continue
		}
		if best < 0 || s.domCount[q] < bestCount {
			best, bestCount = graph.NodeID(q), s.domCount[q]
			if bestCount == 0 {
				break // cannot do better than a dead end
			}
		}
	}
	return best
}

// search expands depth d and returns the backjump target: a value jd < d
// tells every level above d to unwind without trying further values
// until depth jd is reached. -1 unwinds the entire search (no level's
// assignment contributed to the failure — or the run was aborted, which
// the stopClock flags distinguish).
func (s *fcSearcher) search(d int) int {
	if d == s.nq {
		s.record()
		return d - 1 // a solution pins every level: backtrack chronologically
	}
	var node graph.NodeID
	if s.dynamic {
		node = s.pickMRV()
		s.order[d] = node
		s.depthOf[node] = int32(d)
	} else {
		node = s.order[d]
	}
	jd := s.expand(d, node)
	if s.dynamic {
		s.depthOf[node] = -1
	}
	return jd
}

// materialize converts node's live domain minus the in-use marks into
// the depth's scratch buffer, ascending.
func (s *fcSearcher) materialize(d int, node graph.NodeID) []int32 {
	buf := s.scratch[d][:0]
	s.candBits.CopyFrom(&s.dom[node])
	if s.candBits.AndNotWith(s.used) {
		buf = s.candBits.AppendTo(buf)
	}
	s.scratch[d] = buf
	return buf
}

func (s *fcSearcher) expand(d int, node graph.NodeID) int {
	s.conf[d].Reset()
	buf := s.materialize(d, node)
	if s.rng != nil {
		s.rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
	}
	nSolBefore := s.nSol
	cutsBefore := s.stats.BoundCuts
	for _, r := range buf {
		if s.checkDeadline() || s.stopped {
			return -1
		}
		s.stats.NodesVisited++
		mark, amark := len(s.trail), len(s.arena)
		s.assign[node] = r
		s.used.Set(r)
		if s.forwardCheck(d, node, r) && s.boundOK(d, r) {
			jd := s.search(d + 1)
			if jd < d {
				s.undoTo(mark, amark, d)
				s.used.Clear(r)
				s.assign[node] = -1
				return jd
			}
		}
		s.undoTo(mark, amark, d)
		s.used.Clear(r)
		s.assign[node] = -1
	}
	if s.nSol > nSolBefore || s.stats.BoundCuts > cutsBefore || s.timedOut || s.stopped {
		// Solutions below (or an abort): chronological, so enumeration
		// stays complete. Likewise any bound cut in the subtree: a cut
		// abandons values without proving the subtree solution-free, so a
		// conflict-directed jump across it would be unsound — taint the
		// whole subtree chronological instead.
		return d - 1
	}
	s.stats.Backtracks++ // a dead-ended subtree root: no solution below
	// Conflict-directed backjump: the deepest level that pruned this
	// node's domain, holds one of its remaining values (injectivity is
	// not propagated eagerly, so the blocked-by-used term is
	// reconstructed here), or contributed to any value's failure. Depth
	// d itself can appear via wipeout unions; it is not a valid target.
	js := s.jumpBuf
	js.CopyFrom(&s.conf[d])
	js.UnionWith(&s.pastFC[node])
	if s.dynamic {
		for q := 0; q < s.nq; q++ {
			if dd := s.depthOf[q]; dd >= 0 && int(dd) < d && s.dom[node].Has(int32(s.assign[q])) {
				js.Set(dd)
			}
		}
	} else {
		for dd := 0; dd < d; dd++ {
			if s.dom[node].Has(int32(s.assign[s.order[dd]])) {
				js.Set(int32(dd))
			}
		}
	}
	js.Clear(int32(d))
	jump := js.Max()
	if jump >= 0 {
		if int(jump) < d-1 {
			s.stats.Backjumps++
		}
		s.conf[jump].UnionWith(js)
		s.conf[jump].Clear(jump)
	} else if d > 1 {
		s.stats.Backjumps++ // the whole prefix is skipped
	}
	return int(jump)
}

func (s *fcSearcher) record() {
	s.failures = 0 // progress: the subtree holds a complete assignment
	if s.optimize {
		s.recordIncumbent()
		return
	}
	if s.nSol == 0 {
		s.stats.TimeToFirst = time.Since(s.started)
	}
	s.nSol++
	if s.opt.OnSolution != nil {
		if !s.opt.OnSolution(s.assign) {
			s.stopped = true
		}
	} else {
		s.solutions = append(s.solutions, s.assign.Clone())
	}
	if s.opt.MaxSolutions > 0 && s.nSol >= s.opt.MaxSolutions {
		s.stopped = true
	}
}

// boundOK admits the assignment node ↦ r made at depth d only if the
// partial cost so far plus the sum (or max) of the per-node lower bounds
// of every still-unassigned node can still beat the incumbent. It also
// extends the incremental cost stack: costAt[d+1] is valid from here
// down. Strict pruning (≥, not >) is safe because an equal-cost
// completion cannot improve the strict-< incumbent either.
func (s *fcSearcher) boundOK(d int, r int32) bool {
	if !s.optimize {
		return true
	}
	partial := s.obj.combine(s.costAt[d], s.obj.terms[r])
	s.costAt[d+1] = partial
	inc := s.curIncumbent()
	if math.IsInf(inc, 1) {
		return true // nothing to beat yet: every branch is worth exploring
	}
	// Under a monotone fold a partial bound already under-estimates every
	// completion, so the cut can fire as soon as it crosses the
	// incumbent; with negative additive terms the comparison is only
	// sound after ALL remaining nodes are folded in.
	bound := partial
	if s.obj.monotone && bound >= inc {
		s.stats.BoundCuts++
		return false
	}
	if s.dynamic {
		for q := 0; q < s.nq; q++ {
			if s.depthOf[q] >= 0 {
				continue
			}
			bound = s.obj.combine(bound, s.nodeLB(graph.NodeID(q)))
			if s.obj.monotone && bound >= inc {
				s.stats.BoundCuts++
				return false
			}
		}
	} else {
		for dd := d + 1; dd < s.nq; dd++ {
			bound = s.obj.combine(bound, s.nodeLB(s.order[dd]))
			if s.obj.monotone && bound >= inc {
				s.stats.BoundCuts++
				return false
			}
		}
	}
	if bound >= inc {
		s.stats.BoundCuts++
		return false
	}
	return true
}

// nodeLB returns the admissible lower bound on q's term over its live
// domain, cached per domain generation.
func (s *fcSearcher) nodeLB(q graph.NodeID) float64 {
	if s.lbGen[q] == s.domGen[q] {
		return s.lbVal[q]
	}
	lb := s.obj.lowerBound(&s.dom[q])
	s.stats.BoundProbes++
	s.lbVal[q], s.lbGen[q] = lb, s.domGen[q]
	return lb
}

// curIncumbent returns the tightest bound visible to this searcher: the
// local incumbent, further tightened by the fleet-shared bound when
// ParallelECF wired one in.
func (s *fcSearcher) curIncumbent() float64 {
	inc := s.incumbent
	if s.bbShared != nil {
		if g := math.Float64frombits(s.bbShared.Load()); g < inc {
			inc = g
		}
	}
	return inc
}

// tightenIncumbent publishes cost into the shared incumbent word iff it
// strictly improves it, looping on CAS so concurrent improvements stay
// monotone decreasing. It reports whether cost won.
func tightenIncumbent(shared *atomic.Uint64, cost float64) bool {
	for {
		old := shared.Load()
		if cost >= math.Float64frombits(old) {
			return false
		}
		if shared.CompareAndSwap(old, math.Float64bits(cost)) {
			return true
		}
	}
}

// recordIncumbent handles a complete assignment under Optimize: keep it
// only when it strictly beats the best seen, so the search degrades into
// pure pruning once the optimum is found. The cost comes from the
// incremental stack — identical arithmetic to the bounds it is compared
// against.
func (s *fcSearcher) recordIncumbent() {
	cost := s.costAt[s.nq]
	if s.nSol == 0 {
		s.stats.TimeToFirst = time.Since(s.started)
	}
	s.nSol++
	if s.bbShared != nil {
		if !tightenIncumbent(s.bbShared, cost) {
			// A sibling worker already holds something at least as good;
			// still tighten the local copy so future probes skip the load.
			if cost < s.incumbent {
				s.incumbent = cost
			}
			return
		}
	} else if cost >= s.incumbent {
		return
	}
	s.incumbent = cost
	s.best = append(s.best[:0], s.assign...)
	s.hasBest = true
	s.stats.IncumbentUpdates++
	if s.opt.OnImprove != nil {
		s.opt.OnImprove(s.assign, cost)
	}
}

func (s *fcSearcher) result() *Result {
	exhausted := !s.timedOut && !s.stopped
	if s.optimize {
		res := &Result{
			Exhausted: exhausted,
			Stats:     s.stats,
		}
		if s.hasBest {
			res.Solutions = []Mapping{s.best.Clone()}
			res.Cost = s.incumbent
		}
		res.Status = classify(exhausted, len(res.Solutions))
		res.Stats.Elapsed = time.Since(s.started)
		return res
	}
	res := &Result{
		Solutions: s.solutions,
		Exhausted: exhausted,
		Status:    classify(exhausted, s.nSol),
		Stats:     s.stats,
	}
	res.Stats.Elapsed = time.Since(s.started)
	return res
}

// tableStamp is a reusable generation-stamped seen mask over filter
// table IDs — the allocation-free replacement for the per-depth
// map[int32]bool the pre/post-arc builders used to make.
type tableStamp struct {
	gen   []int32
	round int32
}

func newTableStamp(n int) *tableStamp {
	return &tableStamp{gen: make([]int32, n)}
}

// next starts a new deduplication round.
func (t *tableStamp) next() { t.round++ }

// reset re-shapes the stamp for n table IDs, clearing all generations so
// a recycled stamp can never confuse a stale mark with a current one.
func (t *tableStamp) reset(n int) {
	if cap(t.gen) < n {
		t.gen = make([]int32, n)
	} else {
		t.gen = t.gen[:n]
		clear(t.gen)
	}
	t.round = 0
}

// mark records table id for the current round and reports whether it was
// unseen.
func (t *tableStamp) mark(id int32) bool {
	if t.gen[id] == t.round {
		return false
	}
	t.gen[id] = t.round
	return true
}

// domains is the trail-backed live-domain store the LNS and Consolidate
// searches reuse from the FC engine: one bitset per query node, mutated
// through clear/intersect so every change lands on the trail, and undone
// span-wise from a mark. (The full fcSearcher additionally needs
// conflict bookkeeping, so it carries its own copy of this machinery.)
type domains struct {
	dom   []sets.Bitset
	count []int32
	words int
	trail []fcTrailEntry
	arena []uint64
}

func newDomains(nr, nq int) *domains {
	return &domains{
		dom:   sets.MakeBitsets(nr, nq),
		count: make([]int32, nq),
		words: (nr + 63) / 64,
	}
}

// mark returns the trail/arena positions undoTo restores to.
func (ds *domains) mark() (int, int) { return len(ds.trail), len(ds.arena) }

func (ds *domains) undoTo(mark, amark int) {
	for i := len(ds.trail) - 1; i >= mark; i-- {
		e := &ds.trail[i]
		ds.dom[e.node].RestoreSpan(ds.arena[e.off:e.off+e.nw], int(e.w0))
		ds.count[e.node] = e.prevCount
	}
	ds.trail = ds.trail[:mark]
	ds.arena = ds.arena[:amark]
}

// clear removes host r from node q's domain (trail-logged) and returns
// the remaining cardinality.
func (ds *domains) clear(q graph.NodeID, r int32) int32 {
	if !ds.dom[q].Has(r) {
		return ds.count[q]
	}
	w0 := sets.WordOf(r)
	off := len(ds.arena)
	ds.arena = ds.dom[q].SaveSpan(ds.arena, w0, 1)
	ds.dom[q].Clear(r)
	ds.trail = append(ds.trail, fcTrailEntry{
		node: int32(q), w0: int32(w0), nw: 1, off: int32(off), prevCount: ds.count[q],
	})
	ds.count[q]--
	return ds.count[q]
}

// intersect ANDs row into node q's domain (trail-logged when anything
// changes) and returns the remaining cardinality.
func (ds *domains) intersect(q graph.NodeID, row *sets.Bitset) int32 {
	off := len(ds.arena)
	ds.arena = ds.dom[q].SaveSpan(ds.arena, 0, ds.words)
	cnt := int32(ds.dom[q].IntersectCount(row))
	if cnt == ds.count[q] {
		ds.arena = ds.arena[:off]
		return cnt
	}
	ds.trail = append(ds.trail, fcTrailEntry{
		node: int32(q), w0: 0, nw: int32(ds.words), off: int32(off), prevCount: ds.count[q],
	})
	ds.count[q] = cnt
	return cnt
}

// hostAdj lazily materializes per-host-node adjacency bitsets (out ∪ in
// on directed hosts, optionally including the node itself for
// consolidation's co-location). LNS and Consolidate use the rows to
// forward-prune the domains of future query neighbors; rows are built
// only for hosts the search actually assigns.
type hostAdj struct {
	g           *graph.Graph
	includeSelf bool
	rows        []*sets.Bitset
}

func newHostAdj(g *graph.Graph, includeSelf bool) *hostAdj {
	return &hostAdj{g: g, includeSelf: includeSelf, rows: make([]*sets.Bitset, g.NumNodes())}
}

func (h *hostAdj) row(r graph.NodeID) *sets.Bitset {
	if b := h.rows[r]; b != nil {
		return b
	}
	b := sets.NewBitset(h.g.NumNodes())
	for _, a := range h.g.Arcs(r) {
		b.Set(a.To)
	}
	if h.g.Directed() {
		for _, a := range h.g.InArcs(r) {
			b.Set(a.To)
		}
	}
	if h.includeSelf {
		b.Set(r)
	}
	h.rows[r] = b
	return b
}
