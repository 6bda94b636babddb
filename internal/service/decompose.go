package service

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
)

// Cross-shard query decomposition (the Esposito/Matta-style architecture
// NETEMBED §VIII gestures at), boundary first. A query no single region
// can satisfy is split at cut edges into per-shard fragments, and the
// coordinator — the one party that holds the inter-region hosting edges —
// speaks first: per query cut edge it evaluates the edge constraint over
// the cached boundary view into a table of accepted boundary pairs, the
// way a shard's filter build does over its host edges (core.AdmitArcs),
// turns the tables into allow-sets for the fragments' frontier nodes, and
// runs a forward-checking join whose variables are fragments, whose values
// are fragment embeddings fetched from the shards under the current
// allow-sets (Request.Allow), and whose constraints are the tables. Path
// mode rides the same join: its tables are the boundary graph's
// hop-bounded reachability rows, its confirm step a stitched witness path.

// maxCrossAssignments bounds how many fragment assignments one request
// may try; the request deadline is checked between assignments too.
const maxCrossAssignments = 128

// fragmentPage is how many embeddings a shard returns per round trip. A
// page that comes back full is not widened: the join splits one of the
// fragment's frontier allow-sets and asks again, so no embedding is ever
// lost to truncation.
const fragmentPage = 8

// spanOutcome is the one way a spanning request ends. The failures are
// ordered by what they prove, weakest last: of several failed assignments
// the request reports the largest.
type spanOutcome int

const (
	spanAnswered      spanOutcome = iota
	spanFrontierEmpty             // a cut edge no boundary pair can carry
	spanExhausted                 // the join proved the split has no embedding
	spanShardError
	spanDeadline
	spanUnsupported   // nothing to decompose (consolidate, no split, no boundary)
	spanSweepAnswered // decomposition failed, the local sweep answered
	numSpanOutcomes
)

var spanReasons = [numSpanOutcomes]string{
	spanFrontierEmpty: "no boundary edge can carry the query's cut edges",
	spanExhausted:     "the join proved the split has no embedding",
	spanShardError:    "a shard failed while embedding a fragment",
	spanDeadline:      "the deadline passed before the join finished",
}

// shardSnap is a consistent snapshot of one shard's routing facts, taken
// under the coordinator lock so decomposition never races delta traffic.
type shardSnap struct {
	name      string
	nodeCount int
}

// embedAcrossShards answers a request by decomposing the query across
// shards. req.Timeout is the budget. The returned location is "cross:a+b"
// on success and "coordinator" for a no-answer, whose warning names the
// outcome; the caller counts it (Coordinator.countSpan).
func (c *Coordinator) embedAcrossShards(req Request, edgeProg *expr.Program) (*Response, string, spanOutcome) {
	start := time.Now()
	j := &spanJoin{c: c, req: req, edgeProg: edgeProg, deadline: start.Add(req.Timeout)}

	give := func(outcome spanOutcome, warning string) (*Response, string, spanOutcome) {
		c.countJoin(j, false)
		elapsed := time.Since(start)
		j.stats.Elapsed = elapsed
		return &Response{
			Status:   core.StatusInconclusive,
			Stats:    j.stats,
			Elapsed:  elapsed,
			Warnings: append(slices.Clone(j.warnings), warning),
		}, "coordinator", outcome
	}

	if req.Algorithm == AlgoConsolidate {
		return give(spanUnsupported, "cross-shard decomposition does not support consolidate")
	}
	if req.Optimize {
		j.warnings = append(j.warnings, "cross-shard answers are feasibility-only; objective ignored")
	}

	c.mu.RLock()
	snaps := make([]shardSnap, 0, len(c.shards))
	for _, cs := range c.shards {
		if cs.healthy {
			snaps = append(snaps, shardSnap{name: cs.shard.Name(), nodeCount: cs.nodeCount})
		}
	}
	j.bv = c.view
	byRegion := c.byRegion
	c.mu.RUnlock()

	if len(snaps) < 2 {
		return give(spanUnsupported, "fewer than two shards are healthy; nothing to decompose across")
	}
	if len(j.bv.cuts) == 0 {
		return give(spanUnsupported, "the tier has no cut edges to decompose across")
	}
	assignments, aw := c.crossAssignments(req.Query, snaps, j.bv, byRegion)
	j.warnings = append(j.warnings, aw...)
	if len(assignments) == 0 {
		return give(spanUnsupported, "no cross-shard split of the query is possible")
	}

	j.prepare()
	for _, assign := range assignments {
		if j.expired() {
			j.fail(spanDeadline)
		}
		if j.lost() {
			break
		}
		if !j.tryAssignment(assign) {
			continue
		}
		if resp, ok := j.answer(time.Since(start)); ok {
			c.countJoin(j, true)
			names := make([]string, len(j.frags))
			for i, f := range j.frags {
				names[i] = f.name
			}
			return resp, "cross:" + strings.Join(names, "+"), spanAnswered
		}
		j.fail(spanExhausted)
	}
	return give(j.failure, "cross-shard decomposition found no answer: "+spanReasons[j.failure])
}

// crossAssignments produces the fragment assignments (query node index →
// shard name) worth trying, cheapest cut first. Fully region-labeled
// queries yield exactly their pinned assignment; otherwise bipartitions
// across boundary-connected shard pairs are enumerated up to
// MaxSplitNodes query nodes.
func (c *Coordinator) crossAssignments(q *graph.Graph, snaps []shardSnap, bv *boundaryView, byRegion map[string]*coordShard) ([][]string, []string) {
	n := q.NumNodes()
	if n == 0 {
		return nil, nil
	}
	snapByName := make(map[string]shardSnap, len(snaps))
	for _, sn := range snaps {
		snapByName[sn.name] = sn
	}
	// pinned[i] names the shard query node i's region label pins, "" when
	// it has none that resolves to a healthy shard.
	var warnings []string
	pinned := make([]string, n)
	distinct := map[string]bool{}
	for i := range pinned {
		node := q.Node(graph.NodeID(i))
		label, ok := node.Attrs.Text(c.regionAttr)
		if !ok || label == "" {
			continue
		}
		cs, known := byRegion[label]
		if !known {
			warnings = append(warnings,
				fmt.Sprintf("query node %q pins unknown region %q; treating it as unlabeled", node.Name, label))
			continue
		}
		name := cs.shard.Name()
		if _, healthy := snapByName[name]; !healthy {
			warnings = append(warnings,
				fmt.Sprintf("query node %q pins unhealthy shard %q; treating it as unlabeled", node.Name, name))
			continue
		}
		pinned[i] = name
		distinct[name] = true
	}
	if !slices.Contains(pinned, "") {
		if len(distinct) < 2 {
			// Purely local: the shard round is the whole answer.
			return nil, warnings
		}
		return [][]string{pinned}, warnings
	}
	if n > c.maxSplitNodes {
		warnings = append(warnings,
			fmt.Sprintf("query has %d nodes; unlabeled cross-shard splitting is capped at %d", n, c.maxSplitNodes))
		return nil, warnings
	}

	type cand struct {
		assign []string
		cuts   int
	}
	var cands []cand
	for _, pair := range bv.pairs {
		a, okA := snapByName[pair[0]]
		b, okB := snapByName[pair[1]]
		if !okA || !okB {
			continue
		}
		for mask := 1; mask < 1<<n-1 && len(cands) < maxCrossAssignments; mask++ {
			assign := make([]string, n)
			sizeA := 0
			ok := true
			for i := 0; i < n; i++ {
				shard := b.name
				if mask>>i&1 == 1 {
					shard = a.name
					sizeA++
				}
				if pinned[i] != "" && pinned[i] != shard {
					ok = false
					break
				}
				assign[i] = shard
			}
			if !ok || sizeA > a.nodeCount || n-sizeA > b.nodeCount {
				continue
			}
			cuts := 0
			for e := 0; e < q.NumEdges(); e++ {
				ed := q.Edge(graph.EdgeID(e))
				if (mask>>ed.From)&1 != (mask>>ed.To)&1 {
					cuts++
				}
			}
			cands = append(cands, cand{assign: assign, cuts: cuts})
		}
	}
	// Cheapest cut first: fewer boundary negotiations, likelier joins.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cuts < cands[j].cuts })
	out := make([][]string, len(cands))
	for i, cd := range cands {
		out[i] = cd.assign
	}
	return out, warnings
}

// cutTable holds one query cut edge's accepted boundary pairs as rows over
// the boundary graph's nodes: rows[0][hu] is the set of hosts the edge's To
// node may take once its From node sits on hu, rows[1][hv] the reverse.
// Every row is a view of one arena of n·⌈n/64⌉ words per side, and the two
// sides are one arena when the boundary admits both arcs of an edge
// together (core.Symmetric). A table does not depend on the split — only
// the initial allow-sets (which shard owns which endpoint) do — so one
// request builds each query edge's table at most once, whatever it tries.
type cutTable struct {
	rows [2][]sets.Bitset
	// ranged records that the arc-slot pass wrote the rows
	// (core.AdmitArcs), not the transpose.
	ranged bool
}

// cutRef is one query edge crossing the current assignment, with its From
// and To node.
type cutRef struct {
	edge graph.EdgeID
	ends [2]graph.NodeID
}

// fragment is one variable of the join: the part of the query one shard
// embeds. While done, hosts/named/paths hold the chosen embedding.
type fragment struct {
	cs       *coordShard
	name     string
	query    *graph.Graph
	frontier []graph.NodeID // query nodes with a cut edge, by full-query ID
	cuts     []int          // indices into spanJoin.cuts touching this fragment

	done    bool
	hosts   []graph.NodeID // frontier images as boundary-graph nodes, parallel to frontier
	named   NamedMapping
	paths   []PathWitness
	version uint64
}

// spanJoin is one spanning request's state: what it reads of the tier,
// the tables built so far, and the assignment being joined.
type spanJoin struct {
	c        *Coordinator
	req      Request
	edgeProg *expr.Program
	bv       *boundaryView
	deadline time.Time
	stats    core.Stats // fragment counters and filter time, summed; the other durations are the join's own
	warnings []string

	pathMode bool
	specs    []core.MetricSpec
	maxHops  int
	tables   []*cutTable // by query edge ID; path mode shares one
	scratch  core.EvalScratch

	frags     []*fragment
	fragOf    []*fragment // by query node
	cuts      []cutRef
	witnesses []PathWitness // path mode: the stitched witness per cut, parallel to cuts

	failure    spanOutcome
	roundTrips uint64
	examined   uint64
}

func (j *spanJoin) expired() bool {
	return !time.Now().Before(j.deadline) || (j.req.Stop != nil && j.req.Stop())
}

// fail records why the request is not answered; of several reasons the
// one that proves least wins.
func (j *spanJoin) fail(outcome spanOutcome) { j.failure = max(j.failure, outcome) }

// lost reports that the request cannot be answered whatever is tried next.
func (j *spanJoin) lost() bool { return j.failure >= spanShardError }

// prepare resolves what every assignment of the request shares.
func (j *spanJoin) prepare() {
	j.tables = make([]*cutTable, j.req.Query.NumEdges())
	if j.req.Algorithm != AlgoPathEmbed {
		return
	}
	j.pathMode = true
	j.specs = core.PathOptions{
		DelayAttr: j.req.Path.DelayAttr,
		WindowLo:  j.req.Path.WindowLo,
		WindowHi:  j.req.Path.WindowHi,
		Metrics:   j.req.Path.Metrics,
	}.EffectiveMetrics()
	j.maxHops = j.req.Path.MaxHops
	if j.maxHops <= 0 {
		j.maxHops = 3
	}
	// A query edge may ride any boundary path within the hop bound, so
	// every cut edge's table is the reachability oracle's rows; the metric
	// windows are checked when the witness is stitched.
	fwd, rev := j.bv.reachWithin(j.maxHops)
	shared := &cutTable{rows: [2][]sets.Bitset{fwd, rev}}
	for e := range j.tables {
		j.tables[e] = shared
	}
}

// table returns query edge e's cut table, building it on first use the
// way core.BuildFilters builds a query edge's mask-adjacency over a
// shard's host edges (core.AdmitArcs): on a dense, undirected boundary a
// rangeable program is answered from bv.cols' arc-slot range indexes
// straight into the rows, anything else by a batch evaluation over the
// boundary edges transposed into them. With no edge constraint every
// query edge reads the view's one all-admitted table.
func (j *spanJoin) table(e graph.EdgeID) *cutTable {
	if t := j.tables[e]; t != nil {
		return t
	}
	bv, prog := j.bv, j.edgeProg
	if prog == nil {
		j.tables[e] = bv.allAdmitted()
		return j.tables[e]
	}
	q := j.req.Query
	qe := q.Edge(e)
	t, arcs := bv.newCutTable(prog)
	_, t.ranged = core.AdmitArcs(prog, &expr.EdgeBatch{
		VEdge:   qe.Attrs,
		VSource: q.Node(qe.From).Attrs,
		VTarget: q.Node(qe.To).Attrs,
		Host:    bv.cols,
		RSource: bv.from, RTarget: bv.to,
	}, bv.bg.Directed(), &j.scratch, t.rows[0], t.rows[1], arcs)
	j.tables[e] = t
	return t
}

// tryAssignment joins one split of the query: it cuts the fragments out,
// seeds every frontier node's allow-set with the boundary endpoints its
// shard owns, makes the allow-sets arc consistent with the cut tables (an
// empty one is the split no boundary pair can carry, rejected before any
// shard is asked), and runs the join.
func (j *spanJoin) tryAssignment(assign []string) bool {
	q := j.req.Query
	part, err := graph.Partition(q, func(id graph.NodeID) string { return assign[id] })
	if err != nil || len(part.Parts) < 2 {
		j.fail(spanFrontierEmpty)
		return false
	}
	byShard := make(map[string]*fragment, len(part.Parts))
	j.frags = j.frags[:0]
	for name, sub := range part.Parts {
		byShard[name] = &fragment{cs: j.c.byName[name], name: name, query: sub}
		j.frags = append(j.frags, byShard[name])
	}
	sort.Slice(j.frags, func(a, b int) bool { return j.frags[a].name < j.frags[b].name })
	j.fragOf = j.fragOf[:0]
	for _, name := range assign {
		j.fragOf = append(j.fragOf, byShard[name])
	}

	allow := make([]*sets.Bitset, q.NumNodes())
	j.cuts = j.cuts[:0]
	for e := 0; e < q.NumEdges(); e++ {
		qe := q.Edge(graph.EdgeID(e))
		if assign[qe.From] == assign[qe.To] {
			continue
		}
		for _, x := range [2]graph.NodeID{qe.From, qe.To} {
			f := j.fragOf[x]
			f.cuts = append(f.cuts, len(j.cuts))
			if allow[x] != nil {
				continue
			}
			owned := j.bv.owned[assign[x]]
			if owned == nil {
				j.fail(spanFrontierEmpty)
				return false
			}
			f.frontier = append(f.frontier, x)
			allow[x] = owned.Clone()
			if hosts, restricted := j.req.Allow[q.Node(x).Name]; restricted {
				// The caller's own restriction on a frontier node.
				allow[x].IntersectWith(nodeSet(j.bv.bg, hosts))
			}
		}
		j.cuts = append(j.cuts, cutRef{edge: graph.EdgeID(e), ends: [2]graph.NodeID{qe.From, qe.To}})
	}
	if !j.propagate(allow) {
		j.fail(spanFrontierEmpty)
		return false
	}
	j.witnesses = make([]PathWitness, len(j.cuts))
	if j.solve(allow, len(j.frags)) {
		return true
	}
	j.fail(spanExhausted)
	return false
}

// propagate makes the allow-sets arc consistent over the cut edges between
// unassigned fragments (those to assigned ones were enforced when their
// candidate was placed), replacing the sets it shrinks; false means one
// emptied.
func (j *spanJoin) propagate(allow []*sets.Bitset) bool {
	for changed := true; changed; {
		changed = false
		for _, ce := range j.cuts {
			if j.fragOf[ce.ends[0]].done || j.fragOf[ce.ends[1]].done {
				continue
			}
			for side, rows := range j.table(ce.edge).rows {
				x, y := ce.ends[side], ce.ends[1-side]
				kept := revise(allow[x], rows, allow[y])
				if kept == nil {
					continue
				}
				if !kept.Any() {
					return false
				}
				allow[x], changed = kept, true
			}
		}
	}
	return true
}

// revise returns x without the hosts none of whose partners (their row)
// is still allowed for the node at the cut edge's other end — nil when
// that drops nothing. x itself is shared and left alone.
func revise(x *sets.Bitset, rows []sets.Bitset, y *sets.Bitset) *sets.Bitset {
	var kept *sets.Bitset
	x.ForEach(func(h graph.NodeID) bool {
		if !rows[h].Intersects(y) {
			if kept == nil {
				kept = x.Clone()
			}
			kept.Clear(h)
		}
		return true
	})
	return kept
}

// solve assigns the left unassigned fragments, most constrained first:
// the largest fragment, then the smallest total allow-set.
func (j *spanJoin) solve(allow []*sets.Bitset, left int) bool {
	if left == 0 {
		return true
	}
	var pick *fragment
	pickSize := 0
	for _, f := range j.frags {
		if f.done {
			continue
		}
		size := 0
		for _, x := range f.frontier {
			size += allow[x].Count()
		}
		if pick == nil || f.query.NumNodes() > pick.query.NumNodes() ||
			(f.query.NumNodes() == pick.query.NumNodes() && size < pickSize) {
			pick, pickSize = f, size
		}
	}
	var tried [][]graph.NodeID
	return j.branch(pick, allow, left, &tried, 0)
}

// branch finds an embedding of fragment f under the allow-sets that the
// rest of the join can be completed from. It examines one page of f's
// embeddings; two that agree on the frontier are interchangeable, so when
// the page was cut short by its size the frontier node with the widest
// allow-set is split in two and each half asked for again, with a page
// twice as long — down to singletons, where one embedding stands for all.
// tried remembers the frontier tuples already ruled out, so a half does
// not re-examine what the page before the split did.
func (j *spanJoin) branch(f *fragment, allow []*sets.Bitset, left int, tried *[][]graph.NodeID, depth int) bool {
	if j.expired() {
		j.fail(spanDeadline)
		return false
	}
	// open: some neighbour fragment is still unassigned, so which frontier
	// hosts f takes matters to the rest of the join.
	open := false
	for _, ci := range f.cuts {
		for _, x := range j.cuts[ci].ends {
			open = open || j.fragOf[x] != f && !j.fragOf[x].done
		}
	}
	widest, width := graph.NodeID(-1), 1
	for _, x := range f.frontier {
		if n := allow[x].Count(); n > width {
			widest, width = x, n
		}
	}
	page := fragmentPage << min(depth, 6)
	if !open || widest < 0 {
		page = 1
	}
	resp := j.fetch(f, allow, page)
	if resp == nil {
		return false
	}
	for i, named := range resp.Named {
		// Where the embedding puts f's frontier, as boundary-graph nodes.
		hosts, inside := make([]graph.NodeID, len(f.frontier)), true
		for k, x := range f.frontier {
			h, known := j.bv.bg.NodeByName(named[j.req.Query.Node(x).Name])
			hosts[k], inside = h, inside && known && allow[x].Has(h)
		}
		if !inside || slices.ContainsFunc(*tried, func(seen []graph.NodeID) bool { return slices.Equal(seen, hosts) }) {
			continue
		}
		*tried = append(*tried, hosts)
		j.examined++
		next, ok := j.place(f, hosts, allow)
		if !ok {
			continue
		}
		f.done, f.hosts, f.named, f.version = true, hosts, named, resp.ModelVersion
		f.paths = nil
		if i < len(resp.Paths) {
			f.paths = resp.Paths[i]
		}
		if j.propagate(next) && j.solve(next, left-1) {
			return true
		}
		f.done = false
		if !open || j.lost() {
			// With every neighbour already fixed, f's choice cannot have
			// been what failed the rest.
			return false
		}
	}
	switch {
	case resp.Status == core.StatusComplete:
		return false // every embedding under these allow-sets was on the page
	case len(resp.Named) < page:
		j.fail(spanDeadline) // the shard ran out of time, not of embeddings
		return false
	case widest < 0:
		return false // singleton frontier: the one embedding stood for all
	}
	var halves [2]*sets.Bitset
	for i := range halves {
		halves[i] = sets.NewBitset(allow[widest].Len())
	}
	n := 0
	allow[widest].ForEach(func(h graph.NodeID) bool {
		halves[2*n/width].Set(h)
		n++
		return true
	})
	for _, half := range halves {
		next := slices.Clone(allow)
		next[widest] = half
		if j.branch(f, next, left, tried, depth+1) {
			return true
		}
		if j.lost() {
			return false
		}
	}
	return false
}

// fetch is one round trip: a page of f's embeddings under the allow-sets,
// with whatever budget the request has left. nil means the request is
// lost (shard error, recorded against the shard's health).
func (j *spanJoin) fetch(f *fragment, allow []*sets.Bitset, page int) *Response {
	sreq := j.req
	sreq.Query = f.query
	sreq.Timeout = max(time.Until(j.deadline), time.Millisecond)
	sreq.MaxResults = page
	sreq.Optimize = false
	sreq.Objective = core.Objective{}
	sreq.OnImprove = nil
	sreq.Allow = make(map[string][]string, len(f.frontier))
	for i := 0; i < f.query.NumNodes(); i++ {
		// The caller's own restrictions on nodes off the frontier; those on
		// it were folded into the allow-sets when they were seeded.
		name := f.query.Node(graph.NodeID(i)).Name
		if hosts, restricted := j.req.Allow[name]; restricted {
			sreq.Allow[name] = hosts
		}
	}
	for _, x := range f.frontier {
		hosts := make([]string, 0, allow[x].Count())
		allow[x].ForEach(func(h graph.NodeID) bool {
			hosts = append(hosts, j.bv.bg.Node(h).Name)
			return true
		})
		sreq.Allow[j.req.Query.Node(x).Name] = hosts
	}
	j.roundTrips++
	resp, err := f.cs.shard.Embed(sreq)
	if err != nil {
		j.c.recordFailure(f.cs, err)
		j.warnings = append(j.warnings, fmt.Sprintf("shard %s failed on its fragment: %v", f.name, err))
		j.fail(spanShardError)
		return nil
	}
	j.c.recordSuccess(f.cs, resp.ModelVersion)
	j.stats.Add(&resp.Stats)
	j.stats.FilterBuild += resp.Stats.FilterBuild
	return resp
}

// place forward-checks one candidate for f, its frontier on hosts: every
// cut edge to an assigned fragment is confirmed on the boundary itself —
// the boundary edge between the two hosts under the edge constraint,
// independently of what the tables promised, or in path mode a stitched
// witness path, kept for the answer — and every cut edge to an unassigned
// one narrows that neighbour's allow-set through the table row of the host
// just fixed. ok is false when a confirmation fails or an allow-set
// empties.
func (j *spanJoin) place(f *fragment, hosts []graph.NodeID, allow []*sets.Bitset) ([]*sets.Bitset, bool) {
	q := j.req.Query
	next := slices.Clone(allow)
	for _, ci := range f.cuts {
		ce := j.cuts[ci]
		side := 0 // which end of the cut edge is f's
		if j.fragOf[ce.ends[0]] != f {
			side = 1
		}
		mine, other := ce.ends[side], ce.ends[1-side]
		var at [2]graph.NodeID // the hosts under the edge's From and To
		at[side] = hosts[slices.Index(f.frontier, mine)]
		g := j.fragOf[other]
		if !g.done {
			next[other] = next[other].Clone()
			if !next[other].IntersectWith(&j.table(ce.edge).rows[side][at[side]]) {
				return nil, false
			}
			continue
		}
		at[1-side] = g.hosts[slices.Index(g.frontier, other)]
		qe := q.Edge(ce.edge)
		if !j.pathMode {
			if !j.bv.matchEdge(at[0], at[1], q, qe, j.edgeProg) {
				return nil, false
			}
			continue
		}
		w, ok := j.bv.stitchWitness(at[0], at[1], qe, j.specs, j.maxHops, j.expired)
		if !ok {
			if j.expired() {
				j.fail(spanDeadline) // abandoned, not disproved
			}
			return nil, false
		}
		w.Source, w.Target = q.Node(qe.From).Name, q.Node(qe.To).Name
		j.witnesses[ci] = w
	}
	return next, true
}

// answer assembles the joined embedding. Host names are globally unique,
// so a host taken twice means two shards reported overlapping views: no
// answer is better than one that is not injective.
func (j *spanJoin) answer(elapsed time.Duration) (*Response, bool) {
	merged, used := NamedMapping{}, map[string]bool{}
	versions := make([]string, len(j.frags))
	var witnesses []PathWitness
	for i, f := range j.frags {
		for q, r := range f.named {
			if used[r] {
				return nil, false
			}
			merged[q], used[r] = r, true
		}
		versions[i] = fmt.Sprintf("%s=%d", f.name, f.version)
		witnesses = append(witnesses, f.paths...)
	}
	j.stats.TimeToFirst, j.stats.Elapsed = elapsed, elapsed
	resp := &Response{
		Status:  core.StatusPartial,
		Named:   []NamedMapping{merged},
		Stats:   j.stats,
		Elapsed: elapsed,
		Warnings: append(slices.Clone(j.warnings),
			"cross-shard answer: named mappings are authoritative (raw IDs do not span shards)",
			"answer spans shard versions "+strings.Join(versions, " ")),
	}
	if j.pathMode {
		resp.Paths = [][]PathWitness{append(witnesses, j.witnesses...)}
	}
	return resp, true
}

// boundaryView is everything a spanning request reads of the boundary:
// the boundary graph (nodes = cut endpoints, edges = cut edges — cut
// edges and their endpoint attributes only, nothing a shard models), its
// attribute columns for batch constraint evaluation, and which shard owns
// which endpoint. It is built once per boundary or routing-table version
// (Coordinator.installViewLocked) and immutable from then on: readers
// take the reference under c.mu like routes and finish on it.
type boundaryView struct {
	cuts     []graph.CutEdge // the boundary the view describes
	bg       *graph.Graph
	cols     *index.Columns
	from, to []graph.NodeID // bg edge endpoints, by edge ID
	cutOf    []int32        //cow:shared bg edge → index into cuts
	// owned maps a shard name to the cut endpoints it owns, over bg's nodes.
	owned map[string]*sets.Bitset //cow:shared
	// pairs lists the shard pairs joined by at least one cut edge, sorted.
	pairs [][2]string //cow:shared

	// Built on first use under mu: the hop-bounded reachability rows path
	// mode joins on, for the hop bound last asked for, and the cut table
	// of a request with no edge constraint.
	mu       sync.Mutex
	reachFwd []sets.Bitset
	reachRev []sets.Bitset
	hops     int
	all      *cutTable
}

func newBoundaryView(cuts []graph.CutEdge, directed bool, routes map[string]string) *boundaryView {
	bg := graph.New(directed)
	node := func(name string, attrs graph.Attrs) graph.NodeID {
		if id, ok := bg.NodeByName(name); ok {
			return id
		}
		return bg.AddNode(name, attrs)
	}
	cutOf := make([]int32, 0, len(cuts))
	for i, cut := range cuts {
		u := node(cut.Source, cut.SourceAttrs)
		v := node(cut.Target, cut.TargetAttrs)
		if _, err := bg.AddEdge(u, v, cut.Attrs); err != nil {
			continue // duplicate cut edge rows collapse to the first
		}
		cutOf = append(cutOf, int32(i))
	}
	cols := index.NewColumns(bg)
	from, to := cols.Endpoints()

	owned := map[string]*sets.Bitset{}
	for id := 0; id < bg.NumNodes(); id++ {
		shard, ok := routes[bg.Node(graph.NodeID(id)).Name]
		if !ok {
			continue
		}
		if owned[shard] == nil {
			owned[shard] = sets.NewBitset(bg.NumNodes())
		}
		owned[shard].Set(graph.NodeID(id))
	}
	seen := map[[2]string]bool{}
	var pairs [][2]string
	for e := range from {
		a, okA := routes[bg.Node(from[e]).Name]
		b, okB := routes[bg.Node(to[e]).Name]
		if !okA || !okB || a == b {
			continue
		}
		if b < a {
			a, b = b, a
		}
		if pair := [2]string{a, b}; !seen[pair] {
			seen[pair] = true
			pairs = append(pairs, pair)
		}
	}
	slices.SortFunc(pairs, func(x, y [2]string) int {
		return cmp.Or(strings.Compare(x[0], y[0]), strings.Compare(x[1], y[1]))
	})
	return &boundaryView{cuts: cuts, bg: bg, cols: cols, from: from, to: to, cutOf: cutOf, owned: owned, pairs: pairs}
}

// cutIndex resolves a cut edge by its endpoint names to its index in cuts
// (either order unless the hosting network is directed).
func (bv *boundaryView) cutIndex(source, target string) (int, bool) {
	u, okU := bv.bg.NodeByName(source)
	v, okV := bv.bg.NodeByName(target)
	if !okU || !okV {
		return 0, false
	}
	e, ok := bv.bg.EdgeBetween(u, v)
	if !ok {
		return 0, false
	}
	return int(bv.cutOf[e]), true
}

// matchEdge finds the boundary edge between the chosen hosting nodes and
// evaluates the edge constraint on it, query From on hu and To on hv.
func (bv *boundaryView) matchEdge(hu, hv graph.NodeID, q *graph.Graph, qe *graph.Edge, prog *expr.Program) bool {
	e, ok := bv.bg.EdgeBetween(hu, hv)
	if !ok {
		return false
	}
	if prog == nil {
		return true
	}
	return prog.EvalEdge(&expr.EdgeBinding{
		VEdge:   qe.Attrs,
		VSource: q.Node(qe.From).Attrs,
		VTarget: q.Node(qe.To).Attrs,
		REdge:   bv.bg.Edge(e).Attrs,
		RSource: bv.bg.Node(hu).Attrs,
		RTarget: bv.bg.Node(hv).Attrs,
	})
}

// newCutTable allocates an empty cut table for the edge constraint prog,
// its two sides one arena when prog admits both arcs of a boundary edge
// together, and returns with it that arena viewed as one set over arc
// slots (nil when the sides are apart).
func (bv *boundaryView) newCutTable(prog *expr.Program) (*cutTable, *sets.Bitset) {
	n := bv.bg.NumNodes()
	out, words := sets.ReuseBitsets(nil, nil, n, n)
	t := &cutTable{rows: [2][]sets.Bitset{out, out}}
	if !core.Symmetric(bv.bg.Directed(), prog) {
		t.rows[1] = sets.MakeBitsets(n, n)
		return t, nil
	}
	arcs := sets.BitsetOver(words)
	return t, &arcs
}

// allAdmitted returns the cut table that admits every boundary edge,
// built on first use and shared by every cut edge of every request with
// no edge constraint.
func (bv *boundaryView) allAdmitted() *cutTable {
	bv.mu.Lock()
	defer bv.mu.Unlock()
	if bv.all == nil {
		t, _ := bv.newCutTable(nil)
		core.AdmitArcs(nil, &expr.EdgeBatch{RSource: bv.from, RTarget: bv.to}, bv.bg.Directed(), nil, t.rows[0], t.rows[1], nil)
		bv.all = t
	}
	return bv.all
}

// reachWithin returns the boundary graph's hop-bounded reachability rows.
func (bv *boundaryView) reachWithin(maxHops int) (fwd, rev []sets.Bitset) {
	bv.mu.Lock()
	defer bv.mu.Unlock()
	if bv.reachFwd == nil || bv.hops != maxHops {
		bv.reachFwd, bv.reachRev = index.BuildReach(bv.bg, maxHops)
		bv.hops = maxHops
	}
	return bv.reachFwd, bv.reachRev
}

// stitchWitness finds a witness path for one query cut edge across the
// boundary graph: at most maxHops boundary edges whose composed metrics
// satisfy the query edge's windows. The enumeration is abandoned as soon
// as stop returns true.
func (bv *boundaryView) stitchWitness(hu, hv graph.NodeID, qe *graph.Edge, specs []core.MetricSpec, maxHops int, stop func() bool) (w PathWitness, found bool) {
	bv.bg.PathsWithinStop(hu, hv, maxHops, stop, func(p graph.Path) bool {
		cost, ok := core.WitnessCost(bv.bg, qe, p.Edges, specs)
		if !ok {
			return true
		}
		names := make([]string, len(p.Nodes))
		for i, id := range p.Nodes {
			names[i] = bv.bg.Node(id).Name
		}
		w, found = PathWitness{Path: names, Cost: cost}, true
		return false
	})
	return w, found
}
