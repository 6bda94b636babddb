package service

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/sets"
)

// Algorithm names a mapping algorithm exposed by the service.
type Algorithm string

// The mapping algorithms of §V plus the parallel driver and the §VIII
// many-to-one extensions (node consolidation and link-to-path mapping).
const (
	AlgoECF         Algorithm = "ecf"
	AlgoRWB         Algorithm = "rwb"
	AlgoLNS         Algorithm = "lns"
	AlgoParallelECF Algorithm = "parallel-ecf"
	AlgoConsolidate Algorithm = "consolidate"
	// AlgoPathEmbed is the §VIII link-to-path extension: query edges ride
	// multi-hop hosting paths under composed metric windows instead of
	// single hosting edges. Tuned by Request.Path; witness paths come
	// back in Response.Paths.
	AlgoPathEmbed Algorithm = "path"
)

// PathRequestOptions shapes an AlgoPathEmbed request: the hop bound and
// the metric windows witness paths must satisfy. The zero value asks for
// the defaults (MaxHops from the service config, additive avgDelay
// bounded by the query edges' minDelay/maxDelay attributes).
type PathRequestOptions struct {
	// MaxHops bounds witness path length in edges (0 = service default;
	// negative values are rejected with ErrBadPathOptions).
	MaxHops int
	// DelayAttr / WindowLo / WindowHi rename the default single-metric
	// delay window (see core.PathOptions).
	DelayAttr string
	WindowLo  string
	WindowHi  string
	// Metrics, when non-empty, replaces the delay window with a
	// conjunction of composed-metric constraints.
	Metrics []core.MetricSpec
}

// Request is one embedding query submitted to the service.
type Request struct {
	// Query is the virtual network to embed.
	Query *graph.Graph
	// EdgeConstraint/NodeConstraint are constraint-language sources
	// (empty = unconstrained beyond topology).
	EdgeConstraint string
	NodeConstraint string
	// Algorithm selects the search strategy (default AlgoECF).
	Algorithm Algorithm
	// Timeout bounds the search; 0 means the service default.
	Timeout time.Duration // cachekey:ignore an answer the budget cut short is never cached, so the budget cannot change a cached one
	// MaxResults caps returned embeddings (0 = all feasible).
	MaxResults int
	// Seed drives AlgoRWB.
	Seed int64
	// ExcludeReserved restricts every query node to the hosts the ledger
	// could still lease open-ended (Ledger.Free), ANDed with Allow. It
	// marks nothing on the host: a constraint reading a reservation
	// attribute reads one nobody sets and draws the usual
	// undefined-attribute warning.
	ExcludeReserved bool
	// DedupeSymmetric collapses embeddings equivalent up to a query
	// automorphism (the Considine-Byers symmetry reduction, §II): a ring
	// query rotated around the same hosting nodes counts once.
	DedupeSymmetric bool
	// Consolidate tunes AlgoConsolidate (capacity/demand attribute names,
	// loopback semantics); ignored by the injective algorithms.
	Consolidate core.ConsolidateOptions
	// Path tunes AlgoPathEmbed (hop bound, metric windows); ignored by
	// the other algorithms.
	Path PathRequestOptions
	// Stop, when non-nil, is the cooperative-cancellation hook threaded
	// into core.Options.Stop: the search polls it on the deadline-check
	// cadence and halts early when it returns true. The async job engine
	// wires job cancellation through here.
	Stop func() bool
	// Objective selects the cost function an optimizing request minimizes
	// (ignored unless Optimize is set; see core.Objective).
	Objective core.Objective
	// Optimize turns the search into branch-and-bound: the response
	// carries the single minimum-Objective embedding plus its cost in
	// ObjectiveCost, with StatusComplete doubling as the optimality
	// proof. Supported by the injective search algorithms (ecf, rwb,
	// parallel-ecf); the others answer with a warning and ignore it.
	Optimize bool
	// OnImprove, when non-nil, receives every incumbent improvement of an
	// optimizing search by names — the anytime hook the job engine wires
	// to surface best-so-far on GET /jobs/{id}. Must be safe for
	// concurrent use (parallel-ecf improves from several workers).
	OnImprove func(NamedMapping, float64)
	// Allow restricts domains by name: query node name → the hosting nodes
	// it may map onto; a query node without an entry is unrestricted. Host
	// names the model does not know are simply not allowed (a coordinator's
	// boundary view may trail a shard's model), an unknown query node or a
	// list longer than the model has nodes is ErrBadAllow. Every algorithm
	// honours it (core.Problem.Allow).
	Allow map[string][]string
}

// NamedMapping renders an embedding by node names: query node name ->
// hosting node name.
type NamedMapping map[string]string

// PathWitness renders one query edge's witness hosting path by names:
// the query edge's endpoints, the hosting nodes the path crosses in
// order, and the first metric's composed value along it.
type PathWitness struct {
	Source string
	Target string
	Path   []string
	Cost   float64
}

// Response is the service's answer to a Request.
type Response struct {
	// Status classifies the result set per §VII-E: complete, partial or
	// inconclusive.
	Status core.Status
	// Mappings holds the embeddings found, as raw index mappings.
	Mappings []core.Mapping
	// Named holds the same embeddings keyed by node names.
	Named []NamedMapping
	// Paths holds, for AlgoPathEmbed answers, each mapping's witness
	// hosting paths (parallel to Mappings, one witness per query edge,
	// ordered by query edge ID). Nil for the other algorithms.
	Paths [][]PathWitness
	// ModelVersion identifies the hosting-network snapshot answered
	// against.
	ModelVersion uint64
	// Stats carries the search effort counters.
	Stats core.Stats
	// ObjectiveCost is the objective value of Mappings[0] when the
	// request optimized and a feasible embedding was found; nil otherwise.
	ObjectiveCost *float64
	// Elapsed is the end-to-end service time for the request.
	Elapsed time.Duration
	// Warnings flags suspicious-but-legal requests, e.g. a constraint
	// referencing a hosting-side attribute the model never defines.
	Warnings []string
}

// Service is the NETEMBED mapping service: it owns a network model,
// compiles constraint programs, dispatches to the §V algorithms and
// classifies results. It is safe for concurrent use.
type Service struct {
	model           *Model
	ledger          *Ledger
	defaultTimeout  time.Duration
	defaultPathHops int
}

// Config tunes a Service.
type Config struct {
	// DefaultTimeout applies when a Request carries none (default 30s).
	DefaultTimeout time.Duration
	// DefaultPathHops is the witness hop bound for AlgoPathEmbed requests
	// that carry none (default 3, the core default).
	DefaultPathHops int
}

// SlotsAttr is the hosting-node attribute carrying multi-tenant capacity:
// a node with slots=k can hold k concurrent reservations (default 1).
const SlotsAttr = "slots"

// New builds a Service around a model. Node capacities come live from the
// model's SlotsAttr attribute.
func New(model *Model, cfg Config) *Service {
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	s := &Service{
		model:           model,
		ledger:          NewLedger(),
		defaultTimeout:  cfg.DefaultTimeout,
		defaultPathHops: cfg.DefaultPathHops,
	}
	s.ledger.SetCapacity(func(r graph.NodeID) int {
		snap := model.Acquire()
		defer snap.Release()
		if g := snap.Host(); int(r) < g.NumNodes() {
			if slots, ok := g.Node(r).Attrs.Float(SlotsAttr); ok {
				return int(slots)
			}
		}
		return 1
	})
	return s
}

// Model exposes the underlying network model.
func (s *Service) Model() *Model { return s.model }

// Ledger exposes the reservation ledger.
func (s *Service) Ledger() *Ledger { return s.ledger }

// Request validation errors.
var (
	ErrNoQuery          = errors.New("service: request has no query network")
	ErrUnknownAlgorithm = errors.New("service: unknown algorithm")
	// ErrBadConstraint rejects an edge or node constraint source that does
	// not compile.
	ErrBadConstraint = errors.New("service: bad constraint")
	// ErrBadPathOptions rejects malformed AlgoPathEmbed tuning — today a
	// negative MaxHops, which must never reach the searcher (it used to
	// disable the hop bound entirely).
	ErrBadPathOptions = errors.New("service: bad path options")
	// ErrBadAllow rejects an allow-set naming a query node the query does
	// not have, or listing more hosts than the model holds.
	ErrBadAllow = errors.New("service: bad allow-set")
	// ErrUnsupportedAlgorithm rejects a known algorithm an operation
	// cannot run (Schedule leases one-to-one mappings of single edges, so
	// not consolidate or path).
	ErrUnsupportedAlgorithm = errors.New("service: algorithm not supported here")
)

// Embed answers one embedding request against the current model
// snapshot, pinned (Model.Acquire) for the request and released when it
// finishes, so superseded snapshots retire as soon as their last
// in-flight request drains.
func (s *Service) Embed(req Request) (*Response, error) {
	snap := s.model.Acquire()
	defer snap.Release()
	return s.EmbedOn(snap, req)
}

// EmbedOn answers one request against a pinned snapshot; the caller
// acquired it and releases it. The snapshot's index is threaded into
// core.Options so BuildFilters reads its cached columns instead of
// rescanning the host.
//
// keycomplete holds this function to core.Options: every Options field
// must be set here from fingerprinted request state (or be marked
// cachekey:ignore on its declaration), so an option that shapes answers
// cannot bypass the engine cache's request fingerprint.
//
//keycomplete:fingerprint core.Options
func (s *Service) EmbedOn(snap Snapshot, req Request) (*Response, error) {
	start := time.Now()
	if req.Query == nil {
		return nil, ErrNoQuery
	}
	edgeProg, nodeProg, err := CompilePrograms(req.EdgeConstraint, req.NodeConstraint)
	if err != nil {
		return nil, err
	}

	if req.Algorithm == AlgoPathEmbed {
		return s.embedPath(snap, req, edgeProg, nodeProg, start)
	}

	host := snap.Host()
	newProblem := core.NewProblem
	if req.Algorithm == AlgoConsolidate {
		newProblem = core.NewConsolidatedProblem
	}
	p, err := newProblem(req.Query, host, edgeProg, nodeProg)
	if err != nil {
		return nil, err
	}
	if p.Allow, err = s.allowFor(req, host); err != nil {
		return nil, err
	}

	opt := core.Options{
		Timeout:      req.Timeout,
		MaxSolutions: req.MaxResults,
		Seed:         req.Seed,
		Stop:         req.Stop,
		Index:        snap.Index(),
		Objective:    req.Objective,
		Optimize:     req.Optimize,
	}
	if opt.Timeout == 0 {
		opt.Timeout = s.defaultTimeout
	}
	var optWarnings []string
	optimizing := req.Optimize && req.Objective.Enabled()
	switch {
	case req.Optimize && !req.Objective.Enabled():
		optWarnings = append(optWarnings,
			"optimize requested without an objective; running plain enumeration")
	case optimizing && (req.Algorithm == AlgoLNS || req.Algorithm == AlgoConsolidate):
		optWarnings = append(optWarnings,
			fmt.Sprintf("algorithm %q does not support optimizing search; objective ignored", req.Algorithm))
		opt.Optimize, opt.Objective, optimizing = false, core.Objective{}, false
	}
	if optimizing {
		optWarnings = append(optWarnings, objectiveAttrWarnings(host, req.Objective)...)
	}
	if optimizing && req.OnImprove != nil {
		onImprove := req.OnImprove
		opt.OnImprove = func(m core.Mapping, cost float64) {
			onImprove(nameMapping(req.Query, host, m), cost)
		}
	}

	res, err := search(p, opt, req)
	if err != nil {
		return nil, err
	}

	resp := &Response{
		Status:       res.Status,
		Mappings:     res.Solutions,
		ModelVersion: snap.Version(),
		Stats:        res.Stats,
		Elapsed:      time.Since(start),
		Warnings:     append(optWarnings, attrWarnings(host, edgeProg, nodeProg)...),
	}
	if optimizing && len(res.Solutions) > 0 {
		cost := res.Cost
		resp.ObjectiveCost = &cost
	}
	if req.DedupeSymmetric && len(resp.Mappings) > 1 {
		autos, complete := core.AutomorphismsBounded(req.Query, core.Options{
			Timeout:      2 * time.Second,
			MaxSolutions: 5000,
			Stop:         req.Stop, // canceled jobs skip the dedupe pass too
		})
		if complete {
			resp.Mappings = core.CanonicalSolutions(resp.Mappings, autos)
		} else {
			resp.Warnings = append(resp.Warnings,
				"symmetry dedupe skipped: automorphism group too large to enumerate")
		}
	}
	resp.Named = make([]NamedMapping, len(resp.Mappings))
	for i, m := range resp.Mappings {
		resp.Named[i] = nameMapping(req.Query, host, m)
	}
	return resp, nil
}

// search runs the request's algorithm over p. AlgoPathEmbed has its own
// problem and options (embedPath) and is not dispatched here.
func search(p *core.Problem, opt core.Options, req Request) (*core.Result, error) {
	switch req.Algorithm {
	case AlgoECF, "":
		return core.ECF(p, opt), nil
	case AlgoRWB:
		return core.RWB(p, opt), nil
	case AlgoLNS:
		return core.LNS(p, opt), nil
	case AlgoParallelECF:
		return core.ParallelECF(p, opt), nil
	case AlgoConsolidate:
		return core.Consolidate(p, opt, req.Consolidate), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, req.Algorithm)
	}
}

// embedPath answers an AlgoPathEmbed request: query edges map onto
// hosting paths of at most MaxHops edges whose composed metrics satisfy
// the query edge's windows (§VIII link-to-path). The snapshot's index
// supplies the hop-bounded reachability oracle; witness paths
// come back in Response.Paths, by names, one per query edge and ordered
// by query edge ID.
//
//keycomplete:fingerprint core.PathOptions
func (s *Service) embedPath(snap Snapshot, req Request, edgeProg, nodeProg *expr.Program, start time.Time) (*Response, error) {
	host := snap.Host()
	if req.Path.MaxHops < 0 {
		return nil, fmt.Errorf("%w: MaxHops %d is negative", ErrBadPathOptions, req.Path.MaxHops)
	}
	p, err := core.NewProblem(req.Query, host, nil, nodeProg)
	if err != nil {
		return nil, err
	}
	if p.Allow, err = s.allowFor(req, host); err != nil {
		return nil, err
	}
	popt := core.PathOptions{
		MaxHops:      req.Path.MaxHops,
		DelayAttr:    req.Path.DelayAttr,
		WindowLo:     req.Path.WindowLo,
		WindowHi:     req.Path.WindowHi,
		Metrics:      req.Path.Metrics,
		Timeout:      req.Timeout,
		MaxSolutions: req.MaxResults,
		Stop:         req.Stop,
		Index:        snap.Index(),
	}
	if popt.MaxHops == 0 {
		popt.MaxHops = s.defaultPathHops // 0 falls through to the core default
	}
	if popt.Timeout == 0 {
		popt.Timeout = s.defaultTimeout
	}
	res := core.PathEmbed(p, popt)

	resp := &Response{
		Status:       res.Status,
		ModelVersion: snap.Version(),
		Stats:        res.Stats,
		Elapsed:      time.Since(start),
		Warnings:     attrWarnings(host, nodeProg),
	}
	resp.Warnings = append(resp.Warnings, pathAttrWarnings(host, req.Query, req.Path, popt.EffectiveMetrics())...)
	if edgeProg != nil {
		resp.Warnings = append(resp.Warnings,
			"path mode does not consult the edge constraint: witness acceptance is defined by the metric windows")
	}
	if req.DedupeSymmetric {
		resp.Warnings = append(resp.Warnings,
			"symmetry dedupe is not applied in path mode")
	}
	if req.Optimize {
		resp.Warnings = append(resp.Warnings,
			"path mode does not support optimizing search; objective ignored")
	}
	resp.Mappings = make([]core.Mapping, len(res.Solutions))
	resp.Named = make([]NamedMapping, len(res.Solutions))
	resp.Paths = make([][]PathWitness, len(res.Solutions))
	for i, sol := range res.Solutions {
		resp.Mappings[i] = sol.Nodes
		resp.Named[i] = nameMapping(req.Query, host, sol.Nodes)
		witnesses := make([]PathWitness, 0, len(sol.Paths))
		for e := 0; e < req.Query.NumEdges(); e++ {
			path, ok := sol.Paths[graph.EdgeID(e)]
			if !ok {
				continue
			}
			qe := req.Query.Edge(graph.EdgeID(e))
			w := PathWitness{
				Source: req.Query.Node(qe.From).Name,
				Target: req.Query.Node(qe.To).Name,
				Path:   make([]string, len(path.Nodes)),
				Cost:   path.Cost,
			}
			for j, r := range path.Nodes {
				w.Path[j] = host.Node(r).Name
			}
			witnesses = append(witnesses, w)
		}
		resp.Paths[i] = witnesses
	}
	return resp, nil
}

// pathAttrWarnings flags path-metric attribute names that nothing
// defines — the same silent-rejection footgun attrWarnings surfaces for
// constraint programs: a typo'd composed attribute (avgDeley) makes
// every hosting edge contribute MissingEdge, and a typo'd window name
// leaves the spec vacuously unconstrained. Window names are only
// checked when the caller set them explicitly; absent windows on the
// default spec legitimately mean "any path within MaxHops".
func pathAttrWarnings(host, query *graph.Graph, opts PathRequestOptions, specs []core.MetricSpec) []string {
	var warnings []string
	edgeHas := func(g *graph.Graph, attr string) bool {
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(graph.EdgeID(i)).Attrs.Has(attr) {
				return true
			}
		}
		return g.NumEdges() == 0
	}
	for _, spec := range specs {
		if !edgeHas(host, spec.Attr) {
			warnings = append(warnings,
				fmt.Sprintf("path metric composes rEdge.%s but no hosting edge defines %q", spec.Attr, spec.Attr))
		}
	}
	explicit := map[string]bool{}
	for _, name := range []string{opts.WindowLo, opts.WindowHi} {
		if name != "" {
			explicit[name] = true
		}
	}
	for _, spec := range opts.Metrics {
		for _, name := range []string{spec.LoAttr, spec.HiAttr} {
			if name != "" {
				explicit[name] = true
			}
		}
	}
	names := make([]string, 0, len(explicit))
	for name := range explicit {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !edgeHas(query, name) {
			warnings = append(warnings,
				fmt.Sprintf("path window reads vEdge.%s but no query edge defines %q", name, name))
		}
	}
	return warnings
}

// attrWarnings flags hosting-side attribute references that no node or
// edge of the model defines: under three-valued logic a typo like
// rEdge.avgDeley silently rejects every pairing, so surface it.
func attrWarnings(host *graph.Graph, progs ...*expr.Program) []string {
	var warnings []string
	edgeHas := func(attr string) bool {
		for i := 0; i < host.NumEdges(); i++ {
			if host.Edge(graph.EdgeID(i)).Attrs.Has(attr) {
				return true
			}
		}
		return host.NumEdges() == 0
	}
	nodeHas := func(attr string) bool { return hostNodeDefines(host, attr) }
	for _, prog := range progs {
		if prog == nil {
			continue
		}
		for _, ref := range prog.Refs() {
			switch ref.Object {
			case expr.ObjREdge:
				if !edgeHas(ref.Attr) {
					warnings = append(warnings,
						fmt.Sprintf("constraint references %s but no hosting edge defines %q", ref, ref.Attr))
				}
			case expr.ObjRSource, expr.ObjRTarget, expr.ObjRNode:
				if !nodeHas(ref.Attr) {
					warnings = append(warnings,
						fmt.Sprintf("constraint references %s but no hosting node defines %q", ref, ref.Attr))
				}
			}
		}
	}
	return warnings
}

// hostNodeDefines reports whether any hosting node carries attr
// (vacuously true on an empty host, matching the constraint-warning
// convention: nothing to contradict).
func hostNodeDefines(host *graph.Graph, attr string) bool {
	for i := 0; i < host.NumNodes(); i++ {
		if host.Node(graph.NodeID(i)).Attrs.Has(attr) {
			return true
		}
	}
	return host.NumNodes() == 0
}

// objectiveAttrWarnings flags an optimizing request whose objective reads
// a host-node attribute nothing defines — the same silent footgun
// attrWarnings surfaces for constraint programs: a typo ("prise" for
// "price") degenerates every term to its missing-attribute fallback, so
// the objective is constant and the 'optimal' mapping arbitrary. The one
// legitimate silence is energy with its implicit "active" default: no
// active marks anywhere is the documented consolidate-from-cold mode
// (every used host counts), so only an explicitly named attribute warns.
func objectiveAttrWarnings(host *graph.Graph, obj core.Objective) []string {
	norm := obj.Normalized()
	if norm.Kind == core.ObjectiveEnergy && obj.Attr == "" {
		return nil
	}
	if hostNodeDefines(host, norm.Attr) {
		return nil
	}
	return []string{fmt.Sprintf(
		"objective reads rNode.%s but no hosting node defines %q", norm.Attr, norm.Attr)}
}

// CompilePrograms compiles a request's constraint sources; an empty or
// whitespace-only source is no constraint (nil program). Every caller
// that searches or verifies a request's constraints compiles them here.
func CompilePrograms(edgeSrc, nodeSrc string) (*expr.Program, *expr.Program, error) {
	var edgeProg, nodeProg *expr.Program
	if strings.TrimSpace(edgeSrc) != "" {
		p, err := expr.Compile(edgeSrc)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: edge constraint: %w", ErrBadConstraint, err)
		}
		edgeProg = p
	}
	if strings.TrimSpace(nodeSrc) != "" {
		p, err := expr.Compile(nodeSrc)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: node constraint: %w", ErrBadConstraint, err)
		}
		nodeProg = p
	}
	return edgeProg, nodeProg, nil
}

// resolveAllow turns a request's by-name allow-sets into the problem's
// per-query-node host bitsets (nil when the request restricts nothing).
func resolveAllow(query, host *graph.Graph, allow map[string][]string) ([]*sets.Bitset, error) {
	if len(allow) == 0 {
		return nil, nil
	}
	out := make([]*sets.Bitset, query.NumNodes())
	for qName, hosts := range allow {
		q, ok := query.NodeByName(qName)
		if !ok {
			return nil, fmt.Errorf("%w: query has no node %q", ErrBadAllow, qName)
		}
		if len(hosts) > host.NumNodes() {
			return nil, fmt.Errorf("%w: %d hosts listed for %q, the model has %d nodes", ErrBadAllow, len(hosts), qName, host.NumNodes())
		}
		out[q] = nodeSet(host, hosts)
	}
	return out, nil
}

// allowFor is the request's domain restriction: its allow-sets, narrowed
// to the ledger's free hosts under ExcludeReserved.
func (s *Service) allowFor(req Request, host *graph.Graph) ([]*sets.Bitset, error) {
	allow, err := resolveAllow(req.Query, host, req.Allow)
	if err != nil || !req.ExcludeReserved {
		return allow, err
	}
	return narrow(allow, req.Query.NumNodes(), s.ledger.Free(host.NumNodes())), nil
}

// narrow returns allow (nil or one entry per query node) intersected with
// free. Unrestricted query nodes all share free itself, which nothing
// writes; restricted ones get fresh sets, so allow is left as it was.
func narrow(allow []*sets.Bitset, nq int, free *sets.Bitset) []*sets.Bitset {
	out := make([]*sets.Bitset, nq)
	for q := range out {
		out[q] = free
		if allow != nil && allow[q] != nil {
			out[q] = allow[q].Clone()
			out[q].IntersectWith(free)
		}
	}
	return out
}

// nodeSet is the set of g's nodes named in names; names g does not have
// are skipped.
func nodeSet(g *graph.Graph, names []string) *sets.Bitset {
	set := sets.NewBitset(g.NumNodes())
	for _, name := range names {
		if id, ok := g.NodeByName(name); ok {
			set.Set(id)
		}
	}
	return set
}

func nameMapping(query, host *graph.Graph, m core.Mapping) NamedMapping {
	out := make(NamedMapping, len(m))
	for q, r := range m {
		out[query.Node(graph.NodeID(q)).Name] = host.Node(r).Name
	}
	return out
}
