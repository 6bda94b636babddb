package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"netembed/internal/graph"
)

// This file realizes the hierarchical deployment sketched in §VIII as a
// real distributed tier: per-region shard services answer queries against
// their partial views, and a Coordinator routes requests, propagates
// deltas to the owning shards, and joins cross-shard embeddings at the
// boundary (decompose.go) — without ever holding a copy of the full
// hosting graph. The only global state the coordinator owns is the routing
// table (node name → shard) and the boundary: the inter-region edges that
// belong to no shard's induced subgraph, kept as a cached boundaryView.

// ShardStats is the shard-side summary the coordinator routes by.
type ShardStats struct {
	Name      string   `json:"name"`
	Regions   []string `json:"regions"`
	NodeCount int      `json:"nodeCount"`
	// MaxDegree is the shard host's largest node degree — the top rung of
	// the shard index's degree strata ladder — used by the coordinator's
	// eligibility screen.
	MaxDegree    int    `json:"maxDegree"`
	ModelVersion uint64 `json:"modelVersion"`
}

// Shard is one member of the distributed tier: a mapping service over a
// partial view of the hosting network. LocalShard wraps an in-process
// *Service; RemoteShard (internal/service/httpapi) speaks the
// /internal/shard/* peer protocol to another netembedd.
type Shard interface {
	// Name identifies the shard in routing tables and answers.
	Name() string
	// Regions lists the region labels this shard administers.
	Regions() []string
	// NodeCount is the last known size of the shard's partial view.
	NodeCount() int
	// Stats fetches the shard's current routing summary.
	Stats() (ShardStats, error)
	// NodeNames lists the shard's hosting-node names with the model
	// version they reflect — the coordinator's routing-table feed.
	NodeNames() ([]string, uint64, error)
	// Embed answers an embedding request against the shard's view.
	Embed(req Request) (*Response, error)
	// ApplyDelta applies the shard's slice of a model delta and returns
	// the shard's new model version.
	ApplyDelta(d *graph.Delta) (uint64, error)
}

// LocalShard adapts an in-process *Service to the Shard interface —
// single-process federation (NewFederation) and tests run entirely on
// these.
type LocalShard struct {
	name    string
	regions []string
	svc     *Service
	// back, when non-nil, translates the shard's local node IDs to the
	// parent graph's IDs in raw mappings (NewFederation sets it so
	// Response.Mappings stay meaningful against the original host).
	back []graph.NodeID
}

// NewLocalShard wraps a service as a shard of the distributed tier.
func NewLocalShard(name string, regions []string, svc *Service) *LocalShard {
	return &LocalShard{name: name, regions: regions, svc: svc}
}

// Name implements Shard.
func (s *LocalShard) Name() string { return s.name }

// Regions implements Shard.
func (s *LocalShard) Regions() []string { return s.regions }

// Service exposes the wrapped in-process service.
func (s *LocalShard) Service() *Service { return s.svc }

// NodeCount implements Shard.
func (s *LocalShard) NodeCount() int { return s.svc.mustNodeCount() }

// Stats implements Shard.
func (s *LocalShard) Stats() (ShardStats, error) {
	g, idx, version := s.svc.model.SnapshotIndexed()
	return ShardStats{
		Name:         s.name,
		Regions:      s.regions,
		NodeCount:    g.NumNodes(),
		MaxDegree:    idx.MaxDegree(),
		ModelVersion: version,
	}, nil
}

// NodeNames implements Shard.
func (s *LocalShard) NodeNames() ([]string, uint64, error) {
	g, version := s.svc.model.Snapshot()
	names := make([]string, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		names[i] = g.Node(graph.NodeID(i)).Name
	}
	return names, version, nil
}

// Embed implements Shard.
func (s *LocalShard) Embed(req Request) (*Response, error) {
	resp, err := s.svc.Embed(req)
	if err != nil {
		return nil, err
	}
	if s.back != nil {
		for _, m := range resp.Mappings {
			for q, local := range m {
				m[q] = s.back[local]
			}
		}
	}
	return resp, nil
}

// ApplyDelta implements Shard.
func (s *LocalShard) ApplyDelta(d *graph.Delta) (uint64, error) {
	return s.svc.model.Apply(d)
}

// ErrStaleRouting marks a delta that referenced names the coordinator's
// routing table (or a shard's model) no longer resolves — the 409 class.
// The coordinator reacts by refreshing its routing table from the shards.
var ErrStaleRouting = errors.New("service: stale routing table")

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// RegionAttr is the node attribute queries and deltas are routed by.
	RegionAttr string
	// DefaultTimeout applies when a Request carries none (default 30s).
	DefaultTimeout time.Duration
	// MaxSplitNodes caps the query size for unlabeled cross-shard
	// bipartition enumeration (default 10).
	MaxSplitNodes int
	// Boundary seeds the coordinator's cut-edge set: the hosting edges
	// between shards, which no shard's partial view contains.
	Boundary []graph.CutEdge
	// Directed declares the hosting network's orientation (cut-edge
	// matching is order-sensitive only when true).
	Directed bool
	// UnhealthyAfter is how many consecutive failures mark a shard
	// unhealthy (default 3).
	UnhealthyAfter int
}

// Coordinator is the routing tier over a set of shards. It keeps no copy
// of the hosting graph: a query whose region labels name several shards is
// decomposed at its cut edges and joined at the boundary first
// (decompose.go), every other query is swept over the shards' regional
// views first and decomposed only when no region answers, and deltas are
// split and propagated to the owning shards only.
type Coordinator struct {
	regionAttr     string
	defaultTimeout time.Duration
	maxSplitNodes  int
	directed       bool
	unhealthyAfter int

	// byName is immutable after construction (the shard set is fixed).
	byName map[string]*coordShard

	mu     sync.RWMutex
	shards []*coordShard // routing order: largest first
	// routes and view are copy-on-write: readers grab the reference under
	// mu and use it lock-free; writers install fresh values. view is the
	// boundary (view.cuts) with everything derived from it and from routes,
	// rebuilt whenever either changes (installViewLocked).
	routes       map[string]string
	view         *boundaryView
	byRegion     map[string]*coordShard
	ring         *hashRing
	routeVersion uint64

	// How spanning requests ended, and what the joins cost (GET /cluster).
	spanOutcomes       [numSpanOutcomes]uint64
	fragmentRoundTrips uint64
	candidatesExamined uint64
	viewBuilds         uint64
}

// coordShard is the coordinator's bookkeeping for one shard. All mutable
// fields are guarded by Coordinator.mu; the Shard itself is called
// outside the lock.
type coordShard struct {
	shard       Shard
	healthy     bool
	consecFails int
	errs        uint64
	lastErr     string
	embeds      uint64
	deltas      uint64
	nodeCount   int
	maxDegree   int
	regions     []string
	version     uint64
}

// NewCoordinator builds the routing tier over a fixed set of shards,
// interrogating each for its stats and node names to seed the routing
// table. A shard that cannot be reached at boot is marked unhealthy (and
// owns no routes) until a later RefreshRoutes succeeds.
func NewCoordinator(shards []Shard, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("service: coordinator needs at least one shard")
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxSplitNodes <= 0 {
		cfg.MaxSplitNodes = 10
	}
	if cfg.UnhealthyAfter <= 0 {
		cfg.UnhealthyAfter = 3
	}
	c := &Coordinator{
		regionAttr:     cfg.RegionAttr,
		defaultTimeout: cfg.DefaultTimeout,
		maxSplitNodes:  cfg.MaxSplitNodes,
		directed:       cfg.Directed,
		unhealthyAfter: cfg.UnhealthyAfter,
		byName:         make(map[string]*coordShard, len(shards)),
		view:           &boundaryView{cuts: append([]graph.CutEdge(nil), cfg.Boundary...)},
	}
	for _, s := range shards {
		if _, dup := c.byName[s.Name()]; dup {
			return nil, fmt.Errorf("service: duplicate shard name %q", s.Name())
		}
		cs := &coordShard{shard: s, healthy: true}
		c.byName[s.Name()] = cs
		c.shards = append(c.shards, cs)
	}
	c.mu.Lock()
	c.refreshLocked()
	c.mu.Unlock()
	return c, nil
}

// NewFederation partitions the hosting network by the values of the given
// node attribute (e.g. "region") into per-region LocalShards under a
// Coordinator. Nodes without the attribute are assigned by consistent
// hashing over the region shards; when no node carries the attribute at
// all, everything lands in a single shard named "unassigned". The
// coordinator keeps only the routing table and the cut edges between
// regions — no global model.
func NewFederation(host *graph.Graph, regionAttr string, cfg Config) (*Coordinator, error) {
	if host == nil {
		return nil, fmt.Errorf("service: federation needs a hosting network")
	}
	regions := map[string]bool{}
	for i := 0; i < host.NumNodes(); i++ {
		if label, ok := host.Node(graph.NodeID(i)).Attrs.Text(regionAttr); ok && label != "" {
			regions[label] = true
		}
	}
	var part *graph.PartitionResult
	var err error
	if len(regions) == 0 {
		part, err = graph.PartitionByAttr(host, regionAttr, "unassigned", nil)
	} else {
		names := make([]string, 0, len(regions))
		for name := range regions {
			names = append(names, name)
		}
		ring := newHashRing(names)
		part, err = graph.PartitionByAttr(host, regionAttr, "", ring.owner)
	}
	if err != nil {
		return nil, err
	}
	shards := make([]Shard, 0, len(part.Parts))
	labels := make([]string, 0, len(part.Parts))
	for label := range part.Parts {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		shards = append(shards, &LocalShard{
			name:    label,
			regions: []string{label},
			svc:     New(NewModel(part.Parts[label]), cfg),
			back:    part.Back[label],
		})
	}
	return NewCoordinator(shards, CoordinatorConfig{
		RegionAttr:     regionAttr,
		DefaultTimeout: cfg.DefaultTimeout,
		Boundary:       part.Cuts,
		Directed:       host.Directed(),
	})
}

// refreshLocked re-interrogates every shard for stats and node names and
// rebuilds the routing table, region map, hash ring, routing order and
// boundary view. Callers hold c.mu.
func (c *Coordinator) refreshLocked() {
	routes := make(map[string]string)
	byRegion := make(map[string]*coordShard)
	names := make([]string, 0, len(c.shards))
	for _, cs := range c.shards {
		name := cs.shard.Name()
		names = append(names, name)
		st, err := cs.shard.Stats()
		if err != nil {
			c.failLocked(cs, err)
			continue
		}
		nodes, version, err := cs.shard.NodeNames()
		if err != nil {
			c.failLocked(cs, err)
			continue
		}
		cs.healthy = true
		cs.consecFails = 0
		cs.nodeCount = st.NodeCount
		cs.maxDegree = st.MaxDegree
		cs.regions = st.Regions
		if version > cs.version {
			cs.version = version
		}
		for _, region := range st.Regions {
			if _, taken := byRegion[region]; !taken {
				byRegion[region] = cs
			}
		}
		for _, node := range nodes {
			routes[node] = name
		}
	}
	c.routes = routes
	c.byRegion = byRegion
	c.ring = newHashRing(names)
	c.routeVersion++
	c.installViewLocked(c.view.cuts)
	sort.SliceStable(c.shards, func(i, j int) bool {
		if c.shards[i].nodeCount != c.shards[j].nodeCount {
			return c.shards[i].nodeCount > c.shards[j].nodeCount
		}
		return c.shards[i].shard.Name() < c.shards[j].shard.Name()
	})
}

// installViewLocked publishes the boundary view for cuts under the current
// routing table. Callers hold c.mu; requests holding the previous view
// finish on it.
func (c *Coordinator) installViewLocked(cuts []graph.CutEdge) {
	c.view = newBoundaryView(cuts, c.directed, c.routes)
	c.viewBuilds++
}

// RefreshRoutes re-resolves the routing table from the shards — the
// recovery step after a stale-name (409) delta rejection.
func (c *Coordinator) RefreshRoutes() {
	c.mu.Lock()
	c.refreshLocked()
	c.mu.Unlock()
}

// Shards lists the shard names in routing order (largest view first).
func (c *Coordinator) Shards() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.shards))
	for i, cs := range c.shards {
		out[i] = cs.shard.Name()
	}
	return out
}

// failLocked records one shard failure; callers hold c.mu.
func (c *Coordinator) failLocked(cs *coordShard, err error) {
	cs.errs++
	cs.consecFails++
	cs.lastErr = err.Error()
	if cs.consecFails >= c.unhealthyAfter {
		cs.healthy = false
	}
}

func (c *Coordinator) recordFailure(cs *coordShard, err error) {
	c.mu.Lock()
	c.failLocked(cs, err)
	c.mu.Unlock()
}

func (c *Coordinator) recordSuccess(cs *coordShard, version uint64) {
	c.mu.Lock()
	cs.consecFails = 0
	cs.healthy = true
	if version > cs.version {
		cs.version = version
	}
	c.mu.Unlock()
}

// minQueryDegree is the smallest node degree in the query — the weakest
// per-node adjacency demand an injective embedding places on the host.
func minQueryDegree(q *graph.Graph) int {
	if q.NumNodes() == 0 {
		return 0
	}
	min := q.Degree(0)
	for i := 1; i < q.NumNodes(); i++ {
		if d := q.Degree(graph.NodeID(i)); d < min {
			min = d
		}
	}
	return min
}

// eligibleLocked decides whether a shard can possibly answer the request
// locally. Callers hold c.mu (read).
func (c *Coordinator) eligibleLocked(cs *coordShard, req Request) bool {
	switch req.Algorithm {
	case AlgoConsolidate:
		// Many-to-one: a shard smaller than the query can still host it.
		return true
	case AlgoPathEmbed:
		// Query edges ride multi-hop paths, so the single-edge degree
		// screen below is unsound here.
		return cs.nodeCount >= req.Query.NumNodes()
	}
	if cs.nodeCount < req.Query.NumNodes() {
		return false
	}
	// Degree-strata screen: an injective embedding maps every query node
	// onto a host node of at least its degree, so a shard whose densest
	// node is sparser than the query's sparsest can never answer — don't
	// burn its slice of the timeout budget.
	return cs.maxDegree >= minQueryDegree(req.Query)
}

// pinsSeveralShardsLocked reports whether every query node's region label
// pins a healthy shard and the labels name at least two of them. Callers
// hold c.mu (read).
func (c *Coordinator) pinsSeveralShardsLocked(q *graph.Graph) bool {
	var first *coordShard
	several := false
	for i := 0; i < q.NumNodes(); i++ {
		label, _ := q.Node(graph.NodeID(i)).Attrs.Text(c.regionAttr)
		cs := c.byRegion[label]
		if cs == nil || !cs.healthy {
			return false
		}
		if first == nil {
			first = cs
		}
		several = several || cs != first
	}
	return several
}

// Embed routes a request through the distributed tier. Which of its two
// rounds runs first is read off the query's region labels: when every
// node pins a healthy shard and they name at least two, no single region
// can hold the query as labeled, so it is decomposed at its cut edges and
// joined at the boundary first (half the budget) and swept only if that
// fails; any other query is swept first — each eligible shard gets a slice
// of the first half of the budget against its regional view — and
// decomposed with what remains when no region answers. A shard error is
// recorded against its health and the remaining shards still run. The
// second return names where the answer came from: a shard name,
// "cross:a+b" for a joined answer, or "coordinator" for none.
func (c *Coordinator) Embed(req Request) (*Response, string, error) {
	if req.Query == nil {
		return nil, "", ErrNoQuery
	}
	// Validate the request shape once up front: a malformed constraint or
	// unknown algorithm fails identically on every shard and must not
	// count against shard health.
	edgeProg, _, err := CompilePrograms(req.EdgeConstraint, req.NodeConstraint)
	if err != nil {
		return nil, "", err
	}
	switch req.Algorithm {
	case AlgoECF, AlgoRWB, AlgoLNS, AlgoParallelECF, AlgoConsolidate, AlgoPathEmbed, "":
	default:
		return nil, "", fmt.Errorf("%w %q", ErrUnknownAlgorithm, req.Algorithm)
	}

	start := time.Now()
	timeout := req.Timeout
	if timeout == 0 {
		timeout = c.defaultTimeout
	}

	c.mu.RLock()
	eligible := make([]*coordShard, 0, len(c.shards))
	for _, cs := range c.shards {
		if cs.healthy && c.eligibleLocked(cs, req) {
			eligible = append(eligible, cs)
		}
	}
	spanning := c.pinsSeveralShardsLocked(req.Query)
	c.mu.RUnlock()

	dreq := req
	if spanning {
		dreq.Timeout = timeout / 2
		resp, where, outcome := c.embedAcrossShards(dreq, edgeProg)
		if outcome != spanAnswered {
			if sresp, swhere := c.sweep(req, eligible, remainingBudget(timeout, time.Since(start))); sresp != nil {
				resp, where, outcome = sresp, swhere, spanSweepAnswered
			}
		}
		c.countSpan(outcome)
		return resp, where, nil
	}
	if resp, where := c.sweep(req, eligible, timeout/2); resp != nil {
		return resp, where, nil
	}
	dreq.Timeout = remainingBudget(timeout, time.Since(start))
	resp, where, outcome := c.embedAcrossShards(dreq, edgeProg)
	c.countSpan(outcome)
	return resp, where, nil
}

// sweep asks each eligible shard in routing order to answer the whole
// request against its regional view, budget split evenly, and returns the
// first answer (nil when no region has one).
func (c *Coordinator) sweep(req Request, eligible []*coordShard, budget time.Duration) (*Response, string) {
	if len(eligible) == 0 {
		return nil, ""
	}
	req.Timeout = max(budget/time.Duration(len(eligible)), time.Millisecond)
	for _, cs := range eligible {
		resp, err := cs.shard.Embed(req)
		if err != nil {
			// A failing shard is recorded and skipped; the remaining
			// shards and the other round still run.
			c.recordFailure(cs, err)
			continue
		}
		c.recordSuccess(cs, resp.ModelVersion)
		if len(resp.Named) > 0 {
			c.mu.Lock()
			cs.embeds++
			c.mu.Unlock()
			return resp, cs.shard.Name()
		}
	}
	return nil, ""
}

// countSpan records how one spanning request ended.
func (c *Coordinator) countSpan(outcome spanOutcome) {
	c.mu.Lock()
	c.spanOutcomes[outcome]++
	c.mu.Unlock()
}

// countJoin folds one join's effort into the tier's counters and, for an
// answered one, credits the shards whose fragments it joined.
func (c *Coordinator) countJoin(j *spanJoin, answered bool) {
	c.mu.Lock()
	c.fragmentRoundTrips += j.roundTrips
	c.candidatesExamined += j.examined
	if answered {
		for _, f := range j.frags {
			f.cs.embeds++
		}
	}
	c.mu.Unlock()
}

// remainingBudget is the second round's slice of the request timeout:
// the full budget minus what the first round actually spent,
// floored at a millisecond so an overrun still gets a token attempt.
func remainingBudget(timeout, elapsed time.Duration) time.Duration {
	remaining := timeout - elapsed
	if remaining < time.Millisecond {
		remaining = time.Millisecond
	}
	return remaining
}

// ApplyDelta splits a model delta by ownership and propagates each piece
// to its owning shard only; cut edges (endpoints in different shards) are
// applied to the coordinator's own boundary set, which no shard sees. The
// result maps each shard that received a piece to the model version it
// reported (the version stamp /cluster converges on). Names the routing
// table cannot resolve make the whole delta fail with ErrStaleRouting
// after one refresh-and-retry; cross-shard deltas are not atomic — a
// shard failure mid-propagation leaves the other shards applied and is
// reported in the error.
func (c *Coordinator) ApplyDelta(d *graph.Delta) (map[string]uint64, error) {
	if d.Empty() {
		return map[string]uint64{}, nil
	}
	versions, err := c.applyDeltaOnce(d, true)
	if errors.Is(err, ErrStaleRouting) && len(versions) == 0 {
		// Nothing was propagated: safe to re-resolve the routing table and
		// retry the whole delta once.
		c.RefreshRoutes()
		versions, err = c.applyDeltaOnce(d, false)
	}
	return versions, err
}

// splitState is one delta's decomposition: per-shard sub-deltas plus the
// boundary and routing-table mutations to commit coordinator-side.
type splitState struct {
	perShard map[string]*graph.Delta
	order    []string // deterministic propagation order

	dropBoundary  map[int]bool           // boundary indices removed
	patchBoundary map[int]*graph.CutEdge // boundary indices replaced
	addBoundary   []graph.CutEdge
	routeDel      []string
	routeAdd      map[string]string
}

func (sp *splitState) shardDelta(name string) *graph.Delta {
	d, ok := sp.perShard[name]
	if !ok {
		d = &graph.Delta{}
		sp.perShard[name] = d
		sp.order = append(sp.order, name)
	}
	return d
}

// applyDeltaOnce performs one split-and-propagate round. retryable marks
// whether a split-time stale error may still be retried by the caller.
func (c *Coordinator) applyDeltaOnce(d *graph.Delta, retryable bool) (map[string]uint64, error) {
	c.mu.RLock()
	routes := c.routes
	view := c.view
	byRegion := c.byRegion
	ring := c.ring
	c.mu.RUnlock()

	sp, err := c.splitDelta(d, routes, view, byRegion, ring)
	if err != nil {
		return nil, err
	}

	versions := make(map[string]uint64, len(sp.order))
	var failures []string
	stale := false
	for _, name := range sp.order {
		cs := c.byName[name]
		version, err := cs.shard.ApplyDelta(sp.perShard[name])
		if err != nil {
			c.recordFailure(cs, err)
			if isStaleErr(err) {
				stale = true
			}
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		c.mu.Lock()
		cs.consecFails = 0
		cs.healthy = true
		cs.deltas++
		if version > cs.version {
			cs.version = version
		}
		c.mu.Unlock()
		versions[name] = version
	}

	c.commitSplit(sp)

	if len(failures) > 0 {
		err := fmt.Errorf("service: delta propagation failed on %s", strings.Join(failures, "; "))
		if stale {
			// Shard-side stale names: the routing table has drifted.
			// Re-resolve so the next delta routes correctly; the failed
			// pieces were not applied and the caller sees which.
			if retryable && len(versions) == 0 {
				return versions, fmt.Errorf("%w: %v", ErrStaleRouting, err)
			}
			c.RefreshRoutes()
			return versions, fmt.Errorf("%w: %v", ErrStaleRouting, err)
		}
		return versions, err
	}
	return versions, nil
}

// splitDelta decomposes d by ownership against a routing-table snapshot.
func (c *Coordinator) splitDelta(d *graph.Delta, routes map[string]string, view *boundaryView, byRegion map[string]*coordShard, ring *hashRing) (*splitState, error) {
	sp := &splitState{
		perShard:      map[string]*graph.Delta{},
		dropBoundary:  map[int]bool{},
		patchBoundary: map[int]*graph.CutEdge{},
		routeAdd:      map[string]string{},
	}
	boundary := view.cuts
	pending := map[string]string{} // names added by this delta → owner
	owner := func(name string) (string, bool) {
		if s, ok := pending[name]; ok {
			return s, true
		}
		s, ok := routes[name]
		return s, ok
	}

	for _, ref := range d.RemoveEdges {
		su, okU := owner(ref.Source)
		sv, okV := owner(ref.Target)
		if !okU || !okV {
			return nil, fmt.Errorf("%w: remove-edge %q-%q references unrouted node", ErrStaleRouting, ref.Source, ref.Target)
		}
		if su == sv {
			sd := sp.shardDelta(su)
			sd.RemoveEdges = append(sd.RemoveEdges, ref)
			continue
		}
		i, ok := view.cutIndex(ref.Source, ref.Target)
		if !ok {
			return nil, fmt.Errorf("%w: remove-edge %q-%q crosses shards but is not a known cut edge", ErrStaleRouting, ref.Source, ref.Target)
		}
		sp.dropBoundary[i] = true
	}
	for _, name := range d.RemoveNodes {
		s, ok := owner(name)
		if !ok {
			return nil, fmt.Errorf("%w: remove-node %q is unrouted", ErrStaleRouting, name)
		}
		sd := sp.shardDelta(s)
		sd.RemoveNodes = append(sd.RemoveNodes, name)
		sp.routeDel = append(sp.routeDel, name)
		// Cut edges incident to the node leave with it.
		for i, cut := range boundary {
			if cut.Source == name || cut.Target == name {
				sp.dropBoundary[i] = true
			}
		}
	}
	for _, spec := range d.AddNodes {
		target := ""
		if region, ok := spec.Attrs.Text(c.regionAttr); ok && region != "" {
			if cs, known := byRegion[region]; known {
				target = cs.shard.Name()
			}
		}
		if target == "" {
			// Unlabeled (or unknown-region) nodes are placed by consistent
			// hashing so additions don't reshuffle existing routes.
			target = ring.owner(spec.Name)
		}
		sd := sp.shardDelta(target)
		sd.AddNodes = append(sd.AddNodes, spec)
		pending[spec.Name] = target
		sp.routeAdd[spec.Name] = target
	}
	for _, spec := range d.AddEdges {
		su, okU := owner(spec.Source)
		sv, okV := owner(spec.Target)
		if !okU || !okV {
			return nil, fmt.Errorf("%w: add-edge %q-%q references unrouted node", ErrStaleRouting, spec.Source, spec.Target)
		}
		if su == sv {
			sd := sp.shardDelta(su)
			sd.AddEdges = append(sd.AddEdges, spec)
			continue
		}
		// A new inter-shard link: coordinator-owned. Endpoint attribute
		// bags are only known for nodes added in this same delta; for
		// pre-existing endpoints they stay empty (constraints reading
		// rSource/rTarget on such cut edges evaluate unknown → reject).
		cut := graph.CutEdge{
			Source: spec.Source, Target: spec.Target,
			SourcePart: su, TargetPart: sv,
			Attrs: spec.Attrs.Clone(),
		}
		for _, added := range d.AddNodes {
			if added.Name == spec.Source {
				cut.SourceAttrs = added.Attrs.Clone()
			}
			if added.Name == spec.Target {
				cut.TargetAttrs = added.Attrs.Clone()
			}
		}
		sp.addBoundary = append(sp.addBoundary, cut)
	}
	for _, up := range d.SetNodeAttrs {
		s, ok := owner(up.Node)
		if !ok {
			return nil, fmt.Errorf("%w: set-node-attrs %q is unrouted", ErrStaleRouting, up.Node)
		}
		sd := sp.shardDelta(s)
		sd.SetNodeAttrs = append(sd.SetNodeAttrs, up)
		// Keep the boundary's endpoint-attribute snapshots current.
		for i, cut := range boundary {
			if cut.Source != up.Node && cut.Target != up.Node {
				continue
			}
			patched := sp.patchedCut(i, cut)
			if patched.Source == up.Node {
				patched.SourceAttrs = patchBag(patched.SourceAttrs, up.Set, up.Unset)
			}
			if patched.Target == up.Node {
				patched.TargetAttrs = patchBag(patched.TargetAttrs, up.Set, up.Unset)
			}
		}
	}
	for _, up := range d.SetEdgeAttrs {
		su, okU := owner(up.Source)
		sv, okV := owner(up.Target)
		if !okU || !okV {
			return nil, fmt.Errorf("%w: set-edge-attrs %q-%q references unrouted node", ErrStaleRouting, up.Source, up.Target)
		}
		if su == sv {
			sd := sp.shardDelta(su)
			sd.SetEdgeAttrs = append(sd.SetEdgeAttrs, up)
			continue
		}
		i, ok := view.cutIndex(up.Source, up.Target)
		if !ok {
			return nil, fmt.Errorf("%w: set-edge-attrs %q-%q crosses shards but is not a known cut edge", ErrStaleRouting, up.Source, up.Target)
		}
		patched := sp.patchedCut(i, boundary[i])
		patched.Attrs = patchBag(patched.Attrs, up.Set, up.Unset)
	}
	return sp, nil
}

// patchedCut returns the mutable copy of boundary[i] staged in the split,
// creating it on first touch.
func (sp *splitState) patchedCut(i int, cut graph.CutEdge) *graph.CutEdge {
	if p, ok := sp.patchBoundary[i]; ok {
		return p
	}
	cp := cut
	sp.patchBoundary[i] = &cp
	return &cp
}

// patchBag applies set/unset edits to a cloned attribute bag.
func patchBag(old, set graph.Attrs, unset []string) graph.Attrs {
	out := old.Clone()
	for name, v := range set {
		out = out.Set(name, v)
	}
	for _, name := range unset {
		delete(out, name)
	}
	return out
}

// commitSplit installs the staged boundary and routing-table mutations and
// the boundary view over them (copy-on-write: readers keep using the
// snapshots they grabbed).
func (c *Coordinator) commitSplit(sp *splitState) {
	if len(sp.dropBoundary) == 0 && len(sp.patchBoundary) == 0 && len(sp.addBoundary) == 0 &&
		len(sp.routeDel) == 0 && len(sp.routeAdd) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cuts := c.view.cuts
	if len(sp.dropBoundary) > 0 || len(sp.patchBoundary) > 0 || len(sp.addBoundary) > 0 {
		next := make([]graph.CutEdge, 0, len(cuts)+len(sp.addBoundary))
		for i, cut := range cuts {
			if sp.dropBoundary[i] {
				continue
			}
			if p, ok := sp.patchBoundary[i]; ok {
				next = append(next, *p)
				continue
			}
			next = append(next, cut)
		}
		cuts = append(next, sp.addBoundary...)
	}
	if len(sp.routeDel) > 0 || len(sp.routeAdd) > 0 {
		next := make(map[string]string, len(c.routes)+len(sp.routeAdd))
		for name, s := range c.routes {
			next[name] = s
		}
		for _, name := range sp.routeDel {
			delete(next, name)
		}
		for name, s := range sp.routeAdd {
			next[name] = s
		}
		c.routes = next
	}
	c.routeVersion++
	c.installViewLocked(cuts)
}

// isStaleErr classifies a shard-side apply failure as the 409 class:
// either the wrapped sentinel (RemoteShard) or a name-resolution failure
// from graph.ApplyDelta (LocalShard).
func isStaleErr(err error) bool {
	if errors.Is(err, ErrStaleRouting) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "unknown") || strings.Contains(msg, "missing")
}

// ClusterShardInfo is one shard's row in the operator-facing cluster view.
type ClusterShardInfo struct {
	Name         string   `json:"name"`
	Regions      []string `json:"regions"`
	NodeCount    int      `json:"nodeCount"`
	MaxDegree    int      `json:"maxDegree"`
	ModelVersion uint64   `json:"modelVersion"`
	Healthy      bool     `json:"healthy"`
	Errors       uint64   `json:"errors"`
	LastError    string   `json:"lastError,omitempty"`
	Embeds       uint64   `json:"embeds"`
	Deltas       uint64   `json:"deltas"`
}

// ClusterInfo is the operator-facing state of the distributed tier
// (GET /cluster).
type ClusterInfo struct {
	RegionAttr    string             `json:"regionAttr"`
	Shards        []ClusterShardInfo `json:"shards"`
	RoutedNodes   int                `json:"routedNodes"`
	BoundaryEdges int                `json:"boundaryEdges"`
	RouteVersion  uint64             `json:"routeVersion"`
	CrossEmbeds   uint64             `json:"crossShardEmbeds"`
	// BoundaryRangeIndexBytes is what the current boundary view's range
	// indexes and arc-slot layouts retain (index.Columns.Bytes); spanning
	// requests build them on first use.
	BoundaryRangeIndexBytes int `json:"boundaryRangeIndexBytes"`
	// Spanning counts how the requests that went through cross-shard
	// decomposition ended, and what their joins cost.
	Spanning SpanningInfo `json:"spanning"`
	// CoordinatorNodes is the number of hosting nodes the coordinator
	// itself models: always 0 — the coordinator holds no graph copy.
	// Kept explicit so operators and the e2e smoke can assert it.
	CoordinatorNodes int `json:"coordinatorNodes"`
}

// SpanningInfo is the /cluster view of cross-shard decomposition: one
// counter per way a spanning request ends — each such request counts in
// exactly one — plus what the joins cost.
type SpanningInfo struct {
	Answered      uint64 `json:"answered"`      // joined (equals crossShardEmbeds)
	FrontierEmpty uint64 `json:"frontierEmpty"` // a cut edge no boundary pair can carry; no shard asked
	Exhausted     uint64 `json:"exhausted"`     // the join proved the split has no embedding
	Deadline      uint64 `json:"deadline"`      // the budget or the caller's Stop ended the join
	ShardError    uint64 `json:"shardError"`    // a shard failed on its fragment
	Unsupported   uint64 `json:"unsupported"`   // consolidate, <2 healthy shards, no cut edges or no split to try
	SweepAnswered uint64 `json:"sweepAnswered"` // decomposition failed, the local sweep answered
	// Fragment requests sent to shards, and fragment embeddings the joins
	// forward-checked.
	FragmentRoundTrips uint64 `json:"fragmentRoundTrips"`
	CandidatesExamined uint64 `json:"candidatesExamined"`
	// Boundary-view installs: boot, every routing refresh, every delta that
	// touches the boundary or the routing table.
	BoundaryViewBuilds uint64 `json:"boundaryViewBuilds"`
}

// Cluster reports shard health, versions and the routing table summary.
func (c *Coordinator) Cluster() ClusterInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	info := ClusterInfo{
		RegionAttr:              c.regionAttr,
		RoutedNodes:             len(c.routes),
		BoundaryEdges:           len(c.view.cuts),
		RouteVersion:            c.routeVersion,
		CrossEmbeds:             c.spanOutcomes[spanAnswered],
		BoundaryRangeIndexBytes: c.view.cols.Bytes(),
		Spanning: SpanningInfo{
			Answered:           c.spanOutcomes[spanAnswered],
			FrontierEmpty:      c.spanOutcomes[spanFrontierEmpty],
			Exhausted:          c.spanOutcomes[spanExhausted],
			Deadline:           c.spanOutcomes[spanDeadline],
			ShardError:         c.spanOutcomes[spanShardError],
			Unsupported:        c.spanOutcomes[spanUnsupported],
			SweepAnswered:      c.spanOutcomes[spanSweepAnswered],
			FragmentRoundTrips: c.fragmentRoundTrips,
			CandidatesExamined: c.candidatesExamined,
			BoundaryViewBuilds: c.viewBuilds,
		},
	}
	for _, cs := range c.shards {
		info.Shards = append(info.Shards, ClusterShardInfo{
			Name:         cs.shard.Name(),
			Regions:      append([]string(nil), cs.regions...),
			NodeCount:    cs.nodeCount,
			MaxDegree:    cs.maxDegree,
			ModelVersion: cs.version,
			Healthy:      cs.healthy,
			Errors:       cs.errs,
			LastError:    cs.lastErr,
			Embeds:       cs.embeds,
			Deltas:       cs.deltas,
		})
	}
	return info
}

// hashRing is a consistent-hash ring over shard names: unlabeled nodes
// are owned by the first virtual point clockwise of their name's hash, so
// node additions don't reshuffle existing assignments while the shard set
// is stable.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard string
}

const ringReplicas = 64

func newHashRing(shards []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(shards)*ringReplicas)}
	for _, shard := range shards {
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{
				hash:  fnvHash(fmt.Sprintf("%s#%d", shard, i)),
				shard: shard,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func (r *hashRing) owner(name string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnvHash(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mustNodeCount returns the node count of the service's current model.
func (s *Service) mustNodeCount() int {
	g, _ := s.model.Snapshot()
	return g.NumNodes()
}
