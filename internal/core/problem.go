// Package core implements NETEMBED's network embedding algorithms: the
// filter-matrix construction shared by ECF and RWB, the three search
// algorithms of §V (Exhaustive search with Constraint Filtering, Random
// Walk with Backtracking, Lazy Neighborhood Search), an independent
// mapping verifier, a parallel ECF variant, and the link-to-path
// (many-to-one) extension sketched in §VIII.
//
// A Problem pairs a query (virtual) network with a hosting (real) network
// and the constraint programs that define acceptable pairings. A Mapping
// assigns every query node an injective image among host nodes such that
// every query edge lands on a host edge satisfying the edge constraint.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// Mapping is an embedding: Mapping[q] is the hosting-network node assigned
// to query node q. A complete mapping has one entry per query node.
type Mapping []graph.NodeID

// Clone returns a copy of m.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	copy(out, m)
	return out
}

// Problem is one embedding instance: find injective node mappings from
// Query into Host preserving adjacency under the constraints.
type Problem struct {
	Query *graph.Graph
	Host  *graph.Graph

	// EdgeConstraint is evaluated for every (query edge, host edge)
	// pairing; nil accepts all pairings (topology-only embedding).
	EdgeConstraint *expr.Program
	// NodeConstraint is evaluated for every (query node, host node)
	// pairing; nil accepts all pairings.
	NodeConstraint *expr.Program
	// Allow, when non-nil, restricts domains: Allow[q] (nil = unrestricted)
	// is the set of host nodes query node q may map onto, over the host's
	// node universe, one entry per query node. A domain restriction is part
	// of the problem statement, not a search option: every algorithm and
	// Verify consult it through nodeOK, the filter build through its
	// node-admissibility pass.
	Allow []*sets.Bitset
}

// Problem construction errors.
var (
	ErrNilGraph       = errors.New("core: query and host graphs are required")
	ErrMixedDirection = errors.New("core: query and host must both be directed or both undirected")
	ErrQueryTooLarge  = errors.New("core: query has more nodes than host")
)

// NewProblem validates and assembles an injective embedding problem.
func NewProblem(query, host *graph.Graph, edgeConstraint, nodeConstraint *expr.Program) (*Problem, error) {
	p, err := newProblem(query, host, edgeConstraint, nodeConstraint)
	if err != nil {
		return nil, err
	}
	if query.NumNodes() > host.NumNodes() {
		return nil, ErrQueryTooLarge
	}
	return p, nil
}

// NewConsolidatedProblem assembles a many-to-one embedding problem for
// Consolidate: identical validation to NewProblem except that the query
// may have more nodes than the host, since node consolidation can pack
// several query nodes onto one hosting node (§VIII).
func NewConsolidatedProblem(query, host *graph.Graph, edgeConstraint, nodeConstraint *expr.Program) (*Problem, error) {
	return newProblem(query, host, edgeConstraint, nodeConstraint)
}

func newProblem(query, host *graph.Graph, edgeConstraint, nodeConstraint *expr.Program) (*Problem, error) {
	if query == nil || host == nil {
		return nil, ErrNilGraph
	}
	if query.Directed() != host.Directed() {
		return nil, ErrMixedDirection
	}
	if edgeConstraint != nil {
		if err := edgeConstraint.CheckEdgeContext(); err != nil {
			return nil, err
		}
	}
	if nodeConstraint != nil {
		if err := nodeConstraint.CheckNodeContext(); err != nil {
			return nil, err
		}
	}
	return &Problem{Query: query, Host: host, EdgeConstraint: edgeConstraint, NodeConstraint: nodeConstraint}, nil
}

// edgeOK evaluates the edge constraint for query edge qe mapped onto host
// edge re with the given orientation: query From ↦ host node rs, query To
// ↦ host node rt (rs/rt are re's endpoints, possibly swapped when the
// graphs are undirected).
func (p *Problem) edgeOK(qe *graph.Edge, re *graph.Edge, rs, rt graph.NodeID) bool {
	if p.EdgeConstraint == nil {
		return true
	}
	b := expr.EdgeBinding{
		VEdge:   qe.Attrs,
		REdge:   re.Attrs,
		VSource: p.Query.Node(qe.From).Attrs,
		VTarget: p.Query.Node(qe.To).Attrs,
		RSource: p.Host.Node(rs).Attrs,
		RTarget: p.Host.Node(rt).Attrs,
	}
	return p.EdgeConstraint.EvalEdge(&b)
}

// nodeOK decides whether query node q may map onto host node r: r is in
// q's allow-set (when it has one) and the node constraint accepts the pair.
func (p *Problem) nodeOK(q, r graph.NodeID) bool {
	if p.Allow != nil {
		if a := p.Allow[q]; a != nil && !a.Has(r) {
			return false
		}
	}
	if p.NodeConstraint == nil {
		return true
	}
	b := expr.NodeBinding{
		VNode: p.Query.Node(q).Attrs,
		RNode: p.Host.Node(r).Attrs,
	}
	return p.NodeConstraint.EvalNode(&b)
}

// NodeFeasible reports whether mapping query node q onto host node r
// satisfies the allow-set and the node constraint. Exported for baselines and diagnostics.
func (p *Problem) NodeFeasible(q, r graph.NodeID) bool { return p.nodeOK(q, r) }

// EdgeFeasible reports whether query edge qe can ride on a host edge
// between rs and rt (in that orientation): the host edge must exist and
// satisfy the edge constraint. Exported for baselines and diagnostics.
func (p *Problem) EdgeFeasible(qe *graph.Edge, rs, rt graph.NodeID) bool {
	reID, ok := p.Host.EdgeBetween(rs, rt)
	if !ok {
		return false
	}
	return p.edgeOK(qe, p.Host.Edge(reID), rs, rt)
}

// Verify independently checks that m is a correct embedding for p: it is
// complete, injective, maps every query edge onto an existing host edge in
// the right orientation, stays inside the allow-sets and satisfies both
// constraint programs. It is the ground truth used by tests and the service layer.
func (p *Problem) Verify(m Mapping) error {
	nq := p.Query.NumNodes()
	if len(m) != nq {
		return fmt.Errorf("core: mapping has %d entries, query has %d nodes", len(m), nq)
	}
	used := make(map[graph.NodeID]graph.NodeID, nq)
	for q, r := range m {
		if r < 0 || int(r) >= p.Host.NumNodes() {
			return fmt.Errorf("core: query node %d mapped to invalid host node %d", q, r)
		}
		if prev, dup := used[r]; dup {
			return fmt.Errorf("core: host node %d assigned to both query nodes %d and %d", r, prev, q)
		}
		used[r] = graph.NodeID(q)
		if !p.nodeOK(graph.NodeID(q), r) {
			return fmt.Errorf("core: node constraint rejects %d -> %d", q, r)
		}
	}
	for i := 0; i < p.Query.NumEdges(); i++ {
		qe := p.Query.Edge(graph.EdgeID(i))
		rs, rt := m[qe.From], m[qe.To]
		reID, ok := p.Host.EdgeBetween(rs, rt)
		if !ok {
			return fmt.Errorf("core: query edge %d (%d-%d) has no host edge %d-%d", i, qe.From, qe.To, rs, rt)
		}
		if !p.edgeOK(qe, p.Host.Edge(reID), rs, rt) {
			return fmt.Errorf("core: edge constraint rejects query edge %d on host edge %d", i, reID)
		}
	}
	return nil
}

// Status classifies a search outcome the way §VII-E does.
type Status int

// The §VII-E result qualities.
const (
	// StatusComplete: the search space was exhausted before any timeout;
	// the returned set is the complete set of feasible embeddings (possibly
	// empty, which is then a definitive no-match answer).
	StatusComplete Status = iota
	// StatusPartial: the search stopped early (timeout or solution cap)
	// after finding at least one feasible embedding.
	StatusPartial
	// StatusInconclusive: the search stopped early with no embedding
	// found; nothing can be concluded about feasibility.
	StatusInconclusive
)

func (s Status) String() string {
	switch s {
	case StatusComplete:
		return "complete"
	case StatusPartial:
		return "partial"
	case StatusInconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// OrderMode selects how ECF/RWB order query nodes (Lemma 1 ablations).
type OrderMode int

// Node ordering heuristics.
const (
	// OrderAscending realizes Lemma 1 the way the paper's linear scaling
	// requires: the seed is the node with the fewest base candidates, and
	// every subsequent node is chosen among those adjacent to the ordered
	// prefix (most prefix edges first — the strongest filter
	// intersection — then fewest base candidates). Keeping the prefix
	// connected guarantees each placement is constrained by at least one
	// filter row; a pure global sort can schedule mutually unrelated
	// nodes first, whose unconstrained placements explode the tree. The
	// default.
	OrderAscending OrderMode = iota
	// OrderNatural keeps the query's node numbering (ablation).
	OrderNatural
	// OrderDescending inverts the candidate-count sort (worst case,
	// ablation).
	OrderDescending
	// OrderUnconnected is the literal global ascending sort without the
	// connectivity refinement (ablation — demonstrates the blowup).
	OrderUnconnected
)

// Options tune a search run. The zero value asks for all solutions with no
// timeout using the paper's default heuristics.
type Options struct {
	// Timeout bounds the search (0 = unbounded). Results found before the
	// deadline are returned with StatusPartial/StatusInconclusive.
	Timeout time.Duration
	// MaxSolutions stops the search after this many embeddings (0 = all).
	MaxSolutions int
	// Order selects the ECF/RWB node ordering heuristic.
	Order OrderMode // cachekey:ignore not settable from a service request; constant per process
	// Seed drives RWB's randomized candidate choice.
	Seed int64
	// LooseRoot uses the paper's literal formula (1) (union of filter
	// cells) for base candidate sets instead of the tighter per-neighbor
	// intersection refinement. Ablation knob; both are complete.
	LooseRoot bool // cachekey:ignore ablation knob, not settable from a service request
	// NoDegreeFilter disables the host-degree >= query-degree candidate
	// filter. Ablation knob; the filter never removes feasible embeddings.
	NoDegreeFilter bool // cachekey:ignore ablation knob, not settable from a service request
	// OnSolution, when non-nil, streams each embedding as it is found; the
	// mapping is only valid during the call (clone to retain). Returning
	// false stops the search (the result is then StatusPartial).
	OnSolution func(Mapping) bool // cachekey:ignore streaming hook, not settable from a service request
	// Stop, when non-nil, is polled on the same cadence as the timeout
	// deadline (every few hundred expansions); returning true halts the
	// search as if the deadline had passed, with whatever solutions were
	// found so far. It is the cooperative-cancellation hook: wrap a
	// context (`func() bool { return ctx.Err() != nil }`) or an atomic
	// flag to stop abandoned searches without waiting out their timeout.
	// The hook must be safe for concurrent use when Workers > 1.
	Stop func() bool
	// Workers > 1 parallelizes filter construction across that many
	// goroutines (one query edge per task) and sizes the ParallelECF
	// worker pool. Zero keeps everything sequential and deterministic.
	Workers int // cachekey:ignore parallelism cannot change the (sorted) result set
	// Index, when non-nil, is a prebuilt host-capability index
	// (internal/index) for the hosting network BuildFilters can consult
	// instead of rescanning the host: node admissibility intersects
	// degree strata, topology-only filter tables (no edge constraint)
	// are assembled from adjacency bitsets, and constraints are
	// evaluated over the attribute columns cached on the snapshot. It is
	// used only when it was built over the Problem's very *graph.Graph
	// (Index.ColumnsFor) — an index of another graph is ignored even if
	// its size matches — and either way the candidate sets are identical.
	// The service passes its snapshot's index; the field is kept for
	// benchmark/ until ROADMAP item 0.
	Index *index.Index
	// Objective selects the cost function an optimizing search minimizes
	// (see Objective). It is ignored unless Optimize is set.
	Objective Objective
	// Optimize turns the enumerating search into branch-and-bound: the
	// result carries the single minimum-Objective embedding (plus its
	// cost in Result.Cost) instead of the full solution set, with
	// StatusComplete doubling as the proof of optimality. MaxSolutions is
	// ignored (optimality needs the exhausted tree); Timeout/Stop still
	// truncate, returning the best incumbent with StatusPartial.
	// OnImprove streams incumbent improvements.
	Optimize bool
	// OnImprove, when non-nil, receives every incumbent improvement of an
	// optimizing search: the strictly-cheaper mapping (valid only during
	// the call — clone to retain) and its objective cost. It is the
	// anytime hook behind GET /jobs/{id} best-so-far polling. The hook
	// must be safe for concurrent use when Workers > 1.
	OnImprove func(Mapping, float64)
}

// Stats reports search effort counters.
type Stats struct {
	FilterBuild time.Duration // time spent building filter matrices (ECF/RWB)
	// EdgePairsEval counts the (query edge, host edge) pairs the filter
	// build decided against the edge constraint: the host's edge count per
	// query edge, twice that where the program tells an undirected host
	// edge's orientations apart (rSource/rTarget), none without an edge
	// constraint. It counts pairs decided, not work done: a pair answered
	// from a range index counts as one evaluated chunk by chunk, so the
	// figure depends on neither the evaluation route nor the presence of
	// an index.
	EdgePairsEval int64
	// FilterEntries sums, over the filter tables (one per directed query
	// arc), the hosts each table admits for its head: the size of the
	// union of its rows, the per-arc set formula (1) combines into the
	// base candidate sets.
	FilterEntries    int64
	NodesVisited     int64         // permutation-tree nodes expanded
	Backtracks       int64         // dead ends requiring backtracking
	ConstraintChk    int64         // on-demand constraint evaluations (LNS)
	PruneOps         int64         // domain prunes: forward-checking row ANDs + arc revisions
	Wipeouts         int64         // future-domain wipeouts caught before descending
	WipeoutDepthSum  int64         // sum of depths at which wipeouts fired
	Backjumps        int64         // conflict-directed jumps skipping ≥1 level
	Steals           int64         // subtrees stolen by idle parallel workers
	WitnessProbes    int64         // path-mode witness DFS enumerations actually run
	WitnessHits      int64         // path-mode witness answers served from the memo
	ReachPrunes      int64         // witness probes rejected by the reachability/bound oracle
	BoundCuts        int64         // branch-and-bound subtrees cut by partial cost + lower bounds
	IncumbentUpdates int64         // strictly-improving incumbents found by an optimizing search
	BoundProbes      int64         // per-node lower-bound recomputations
	TimeToFirst      time.Duration // elapsed time when the first solution appeared
	Elapsed          time.Duration // total search time, filter build included
}

// statNames lists the wire names of the int64 counters of Stats in sorted
// order; counter maps the i-th name to its field. Add, Counters and
// SetCounter go through this one list, so a counter has one name and one
// summing rule in every reply, on the shard wire and in /stats. A new
// counter is a field plus an entry here and a case in counter.
var statNames = [...]string{
	"backjumps", "backtracks", "boundCuts", "boundProbes", "constraintChk",
	"edgePairsEval", "filterEntries", "incumbentUpdates", "nodesVisited",
	"pruneOps", "reachPrunes", "steals", "wipeoutDepthSum", "wipeouts",
	"witnessHits", "witnessProbes",
}

// counter returns the field named statNames[i]. A switch, not a table of
// accessors: escape analysis sees through it, so a Stats on the stack
// stays there.
func (st *Stats) counter(i int) *int64 {
	switch i {
	case 0:
		return &st.Backjumps
	case 1:
		return &st.Backtracks
	case 2:
		return &st.BoundCuts
	case 3:
		return &st.BoundProbes
	case 4:
		return &st.ConstraintChk
	case 5:
		return &st.EdgePairsEval
	case 6:
		return &st.FilterEntries
	case 7:
		return &st.IncumbentUpdates
	case 8:
		return &st.NodesVisited
	case 9:
		return &st.PruneOps
	case 10:
		return &st.ReachPrunes
	case 11:
		return &st.Steals
	case 12:
		return &st.WipeoutDepthSum
	case 13:
		return &st.Wipeouts
	case 14:
		return &st.WitnessHits
	case 15:
		return &st.WitnessProbes
	}
	panic(fmt.Sprintf("core: no stats counter %d", i))
}

// Add sums o's counters into st. The durations are left alone: a sum of
// search times is not a time, so each caller keeps its own.
func (st *Stats) Add(o *Stats) {
	for i := range statNames {
		*st.counter(i) += *o.counter(i)
	}
}

// StatCounter is one counter of a Stats under its wire name.
type StatCounter struct {
	Name  string
	Value int64
}

// Counters returns st's counters in sorted name order.
func (st *Stats) Counters() [len(statNames)]StatCounter {
	var out [len(statNames)]StatCounter
	for i, name := range statNames {
		out[i] = StatCounter{name, *st.counter(i)}
	}
	return out
}

// SetCounter sets the counter called name to v; any other name is ignored.
func (st *Stats) SetCounter(name string, v int64) {
	if i, ok := slices.BinarySearch(statNames[:], name); ok {
		*st.counter(i) = v
	}
}

// Result is the outcome of one search run.
type Result struct {
	Solutions []Mapping
	Status    Status
	Exhausted bool // the whole search space was covered
	// Cost is the objective value of Solutions[0] when the run optimized
	// (Options.Optimize with a non-empty solution set); zero otherwise.
	Cost  float64
	Stats Stats
}

// classify derives the §VII-E status from how the search ended.
func classify(exhausted bool, nSolutions int) Status {
	switch {
	case exhausted:
		return StatusComplete
	case nSolutions > 0:
		return StatusPartial
	default:
		return StatusInconclusive
	}
}
