// Package netembed is the public façade of the NETEMBED network resource
// mapping service, a Go reproduction of Londoño & Bestavros, "NETEMBED: A
// Network Resource Mapping Service for Distributed Applications" (Boston
// University CS TR 2006-12-15 / IPPS 2008).
//
// NETEMBED answers the network embedding problem: given a hosting network
// (a real infrastructure annotated with measured link and node metrics)
// and a query network (a virtual topology with constraints), find one or
// all injective node mappings such that every query edge lands on a
// hosting edge satisfying a user-supplied constraint expression.
//
// # Quick start
//
//	host := netembed.SyntheticPlanetLab(netembed.TraceConfig{}, rand.New(rand.NewSource(1)))
//	query, _, _ := netembed.Subgraph(host, 10, 15, rand.New(rand.NewSource(2)))
//	netembed.WidenDelayWindows(query, 0.1)
//
//	constraint := netembed.MustCompile(
//	    "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay")
//	problem, _ := netembed.NewProblem(query, host, constraint, nil)
//	result := netembed.ECF(problem, netembed.Options{MaxSolutions: 1})
//
// See examples/ for complete programs covering the paper's §III scenarios
// and internal/exp for the harness regenerating every evaluation figure.
//
// The façade re-exports the stable API of the internal packages so
// downstream code never imports netembed/internal/... directly:
//
//   - graphs and attributes (internal/graph)
//   - GraphML (internal/graphml)
//   - the constraint language (internal/expr)
//   - the ECF/RWB/LNS algorithms and the many-to-one extensions
//     (internal/core)
//   - topology generators and the trace synthesizer (internal/topo, internal/trace)
//   - the embedding service, reservations and scheduling (internal/service)
//   - Vivaldi network coordinates and model completion (internal/coords)
package netembed

import (
	"io"
	"math/rand"
	"time"

	"netembed/internal/coords"
	"netembed/internal/core"
	"netembed/internal/engine"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/index"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// Graph substrate.
type (
	// Graph is an attributed simple graph (hosting or query network).
	Graph = graph.Graph
	// Attrs is a typed attribute bag on nodes and edges.
	Attrs = graph.Attrs
	// Value is one typed attribute value.
	Value = graph.Value
	// NodeID indexes nodes within a Graph.
	NodeID = graph.NodeID
	// EdgeID indexes edges within a Graph.
	EdgeID = graph.EdgeID
	// Delta is an incremental, name-addressed change to a graph — the
	// unit monitors publish via Model.Apply and POST /deltas.
	Delta = graph.Delta
	// NodeSpec / EdgeSpec / EdgeRef / NodeAttrUpdate / EdgeAttrUpdate
	// are the Delta operation records.
	NodeSpec       = graph.NodeSpec
	EdgeSpec       = graph.EdgeSpec
	EdgeRef        = graph.EdgeRef
	NodeAttrUpdate = graph.NodeAttrUpdate
	EdgeAttrUpdate = graph.EdgeAttrUpdate
	// Index is a persistent, version-stamped host-capability snapshot
	// (adjacency bitsets, degree strata, lazily built reachability tables
	// and attribute columns) patched copy-on-write by deltas.
	Index = index.Index
	// IndexConfig has no fields; callers pass IndexConfig{}.
	IndexConfig = index.Config
)

// BuildIndex computes a fresh capability index over a hosting network.
var BuildIndex = index.Build

// Graph constructors.
var (
	// NewGraph returns an empty graph with the given orientation.
	NewGraph = graph.New
	// NewUndirected returns an empty undirected graph.
	NewUndirected = graph.NewUndirected
	// NewDirected returns an empty directed graph.
	NewDirected = graph.NewDirected
	// Num / Str / Bool build attribute values.
	Num  = graph.Num
	Str  = graph.Str
	Bool = graph.BoolVal
)

// Constraint expression language.
type (
	// Program is a compiled constraint expression.
	Program = expr.Program
)

// Expression compilation.
var (
	// Compile parses and compiles a constraint expression.
	Compile = expr.Compile
	// MustCompile is Compile panicking on error.
	MustCompile = expr.MustCompile
)

// Embedding problems and algorithms.
type (
	// Problem pairs a query network with a hosting network under
	// constraints.
	Problem = core.Problem
	// Mapping assigns each query node a hosting node.
	Mapping = core.Mapping
	// Options tunes a search run (timeout, solution cap, heuristics).
	Options = core.Options
	// Result is a search outcome with §VII-E status classification.
	Result = core.Result
	// Status classifies results: complete, partial or inconclusive.
	Status = core.Status
	// Stats carries search effort counters.
	Stats = core.Stats
	// Filters holds prebuilt ECF/RWB filter matrices for reuse across
	// searches.
	Filters = core.Filters
	// PathOptions tunes the link-to-path (many-to-one) extension (§VIII).
	PathOptions = core.PathOptions
	// PathSolution is a many-to-one embedding with witness paths.
	PathSolution = core.PathSolution
	// PathResult reports a PathEmbed run.
	PathResult = core.PathResult
	// ConsolidateOptions tunes the §VIII many-to-one node consolidation
	// (capacity/demand attributes, loopback semantics).
	ConsolidateOptions = core.ConsolidateOptions
	// MetricSpec constrains one composed metric of a witness path
	// (additive delay, bottleneck bandwidth, multiplicative availability).
	MetricSpec = core.MetricSpec
	// Compose names a metric composition rule.
	Compose = core.Compose
)

// Metric composition rules for MetricSpec.
const (
	Additive       = core.Additive
	Bottleneck     = core.Bottleneck
	Multiplicative = core.Multiplicative
)

// Status values.
const (
	StatusComplete     = core.StatusComplete
	StatusPartial      = core.StatusPartial
	StatusInconclusive = core.StatusInconclusive
)

// Algorithms and helpers.
var (
	// NewProblem validates and assembles an embedding problem.
	NewProblem = core.NewProblem
	// ECF is Exhaustive search with Constraint Filtering (§V-A).
	ECF = core.ECF
	// RWB is Random Walk search with Backtracking (§V-B).
	RWB = core.RWB
	// BuildFilters precomputes the §V-A filter matrices for reuse.
	BuildFilters = core.BuildFilters
	// ECFWithFilters / RWBWithFilters search over prebuilt filters,
	// amortizing construction across repeated queries.
	ECFWithFilters = core.ECFWithFilters
	RWBWithFilters = core.RWBWithFilters
	// LNS is Lazy Neighborhood Search (§V-C).
	LNS = core.LNS
	// ParallelECF shards ECF's root level over worker goroutines.
	ParallelECF = core.ParallelECF
	// DynamicECF re-selects the most-constrained node at every level.
	DynamicECF = core.DynamicECF
	// PathEmbed maps query edges onto bounded-hop hosting paths (§VIII).
	PathEmbed = core.PathEmbed
	// VerifyPathSolution independently checks a PathSolution.
	VerifyPathSolution = core.VerifyPathSolution
	// NewConsolidatedProblem assembles a many-to-one problem where the
	// query may outsize the host (§VIII node consolidation).
	NewConsolidatedProblem = core.NewConsolidatedProblem
	// Consolidate searches for capacity-aware many-to-one embeddings:
	// several query nodes may share one hosting node (§VIII).
	Consolidate = core.Consolidate
	// Automorphisms enumerates a query's attribute-preserving symmetries.
	Automorphisms = core.Automorphisms
	// CanonicalSolutions collapses embeddings equivalent up to a query
	// automorphism (Considine-Byers symmetry reduction, §II).
	CanonicalSolutions = core.CanonicalSolutions
)

// Topology generation and traces.
type (
	// TraceConfig sizes the synthetic PlanetLab trace.
	TraceConfig = trace.Config
	// BriteConfig parameterizes the BRITE-style generator.
	BriteConfig = topo.BriteConfig
	// TopoKind names a regular topology family (ring, star, clique, line).
	TopoKind = topo.Kind
)

// Generators.
var (
	// SyntheticPlanetLab builds the paper's hosting network substitute.
	SyntheticPlanetLab = trace.SyntheticPlanetLab
	// Brite generates BRITE-style synthetic Internet topologies.
	Brite = topo.Brite
	// Ring / Star / Clique / Line build regular query topologies.
	Ring   = topo.Ring
	Star   = topo.Star
	Clique = topo.Clique
	Line   = topo.Line
	// Composite builds two-level hierarchical queries (§VII-D).
	Composite = topo.Composite
	// TransitStub builds a GT-ITM-style two-tier hosting topology.
	TransitStub = topo.TransitStub
	// Subgraph samples a random connected subgraph query (§VII-A).
	Subgraph = topo.Subgraph
	// WidenDelayWindows / SetDelayWindow prepare delay constraints.
	WidenDelayWindows = topo.WidenDelayWindows
	SetDelayWindow    = topo.SetDelayWindow
)

// Service layer.
type (
	// Service is the NETEMBED mapping service (Fig. 1).
	Service = service.Service
	// ServiceConfig tunes a Service.
	ServiceConfig = service.Config
	// Model is the copy-on-write hosting-network snapshot holder.
	Model = service.Model
	// Monitor simulates the measurement feed updating a Model.
	Monitor = service.Monitor
	// MonitorConfig shapes the simulated feed.
	MonitorConfig = service.MonitorConfig
	// Request is one embedding query against the service.
	Request = service.Request
	// Response is the service's answer.
	Response = service.Response
	// PathRequestOptions shapes an AlgoPathEmbed (link-to-path) request.
	PathRequestOptions = service.PathRequestOptions
	// PathWitness renders one query edge's witness hosting path by names.
	PathWitness = service.PathWitness
	// Algorithm selects a search strategy by name.
	Algorithm = service.Algorithm
	// LeaseID identifies a reservation.
	LeaseID = service.LeaseID
	// ScheduleRequest asks for the earliest feasible time window (§VIII).
	ScheduleRequest = service.ScheduleRequest
	// ScheduleResponse reports the scheduled window, mapping and lease.
	ScheduleResponse = service.ScheduleResponse
	// Coordinator is the distributed embedding tier's routing head: it
	// owns no graph copy, routes deltas to owning shards, and decomposes
	// spanning queries across shards (§VIII).
	Coordinator = service.Coordinator
	// Federation is the legacy name for the hierarchical multi-region
	// deployment (§VIII); it is now the Coordinator.
	Federation = service.Coordinator
	// Shard is one member of the distributed tier — in-process
	// (LocalShard) or a remote netembedd peer (httpapi.RemoteShard).
	Shard = service.Shard
	// LocalShard wraps an in-process Service as a Shard.
	LocalShard = service.LocalShard
	// ShardStats is a shard's routing-relevant summary.
	ShardStats = service.ShardStats
	// CoordinatorConfig tunes a Coordinator built over explicit shards.
	CoordinatorConfig = service.CoordinatorConfig
	// ClusterInfo is the operator-facing cluster summary (GET /cluster).
	ClusterInfo = service.ClusterInfo
	// NegotiateRequest drives the §III constraint-relaxation loop.
	NegotiateRequest = service.NegotiateRequest
	// NegotiateResponse reports the embedding and relaxation applied.
	NegotiateResponse = service.NegotiateResponse
	// CompletionConfig tunes coordinate-based model completion for
	// partially measured (open) hosting networks.
	CompletionConfig = service.CompletionConfig
	// CompletionReport describes a completed model: edges added and fit.
	CompletionReport = service.CompletionReport
	// CoordSystem is a Vivaldi network coordinate system (Dabek et al.,
	// the paper's reference [30]) used for delay prediction.
	CoordSystem = coords.System
	// CoordConfig tunes the Vivaldi system.
	CoordConfig = coords.Config
	// CoordEmbedConfig drives a simulated coordinate deployment over a
	// hosting network.
	CoordEmbedConfig = coords.EmbedConfig
	// DensifyConfig turns coordinate predictions into synthesized edges.
	DensifyConfig = coords.DensifyConfig
)

// Service constructors and algorithm names.
var (
	// NewService builds a mapping service around a model.
	NewService = service.New
	// NewModel wraps an initial hosting network.
	NewModel = service.NewModel
	// NewMonitor builds a simulated monitoring feed.
	NewMonitor = service.NewMonitor
	// NewFederation partitions a host into per-region local shards under
	// a Coordinator (single-process distributed tier).
	NewFederation = service.NewFederation
	// NewCoordinator builds a Coordinator over explicit shards (local,
	// remote, or mixed).
	NewCoordinator = service.NewCoordinator
	// NewLocalShard wraps an in-process Service as a Shard.
	NewLocalShard = service.NewLocalShard
	// SelectBest picks the min-cost embedding among candidates (§VIII).
	SelectBest = service.SelectBest
	// CompleteModel densifies a partially measured model with
	// coordinate-predicted delay windows (Fig. 1 monitoring on open
	// networks).
	CompleteModel = service.Complete
	// CoordsEmbed runs a simulated Vivaldi deployment over a host.
	CoordsEmbed = coords.Embed
	// CoordsErrors reports a coordinate system's fit over measured edges.
	CoordsErrors = coords.Errors
	// Densify synthesizes predicted edges for unmeasured pairs.
	Densify = coords.Densify
	// TotalEdgeAttrCost / MaxEdgeAttrCost / SpreadCost are stock
	// objectives for SelectBest.
	TotalEdgeAttrCost = service.TotalEdgeAttrCost
	MaxEdgeAttrCost   = service.MaxEdgeAttrCost
	SpreadCost        = service.SpreadCost
)

// Service algorithm names.
const (
	AlgoECF         = service.AlgoECF
	AlgoRWB         = service.AlgoRWB
	AlgoLNS         = service.AlgoLNS
	AlgoParallelECF = service.AlgoParallelECF
	AlgoConsolidate = service.AlgoConsolidate
	// AlgoPathEmbed maps query edges onto bounded-hop hosting paths
	// (§VIII link-to-path), tuned by Request.Path.
	AlgoPathEmbed = service.AlgoPathEmbed
)

// The engine admits embedding requests through a fixed number of search
// slots with a bounded FIFO of waiters, cooperative cancellation and a
// model-versioned result cache: Engine.SubmitWait blocks, Engine.Submit
// returns a job to poll or cancel.
type (
	// Engine admits embedding requests against a Service.
	Engine = engine.Engine
	// EngineConfig tunes the engine (slots, waiters, cache).
	EngineConfig = engine.Config
	// EngineStats snapshots the engine counters.
	EngineStats = engine.Stats
	// Job is one asynchronous embedding request.
	Job = engine.Job
	// JobID identifies a submitted job.
	JobID = engine.JobID
	// JobInfo is an immutable job snapshot.
	JobInfo = engine.Info
	// JobState classifies a job's lifecycle position.
	JobState = engine.State
)

// NewEngine builds an engine over a service; its tick starts on first use.
var NewEngine = engine.New

// Job lifecycle states.
const (
	JobQueued   = engine.StateQueued
	JobRunning  = engine.StateRunning
	JobDone     = engine.StateDone
	JobFailed   = engine.StateFailed
	JobCanceled = engine.StateCanceled
)

// Engine sentinel errors.
var (
	// ErrQueueFull is the engine's backpressure signal (HTTP 429).
	ErrQueueFull = engine.ErrQueueFull
	// ErrJobNotFound reports an unknown job ID.
	ErrJobNotFound = engine.ErrJobNotFound
	// ErrEngineShuttingDown rejects submissions to a draining engine.
	ErrEngineShuttingDown = engine.ErrShuttingDown
	// ErrJobFinished rejects canceling an already-finished job.
	ErrJobFinished = engine.ErrJobFinished
	// ErrJobCanceled is a canceled job's error.
	ErrJobCanceled = engine.ErrCanceled
)

// EncodeGraphML writes g as a GraphML document.
func EncodeGraphML(w io.Writer, g *Graph) error { return graphml.Encode(w, g) }

// DecodeGraphML reads a GraphML document.
func DecodeGraphML(r io.Reader) (*Graph, error) { return graphml.Decode(r) }

// DefaultPlanetLab returns the paper-sized synthetic PlanetLab host for a
// seed (296 sites, 28,996 measured pairs).
func DefaultPlanetLab(seed int64) *Graph { return trace.Default(seed) }

// NewRand is a convenience alias for seeding generators.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ScheduleRequestOf wraps an embedding request with scheduling windows for
// Service.Schedule: hold resources for duration, searching up to horizon
// ahead in steps.
func ScheduleRequestOf(req Request, duration, horizon, step time.Duration) ScheduleRequest {
	return ScheduleRequest{Request: req, Duration: duration, Horizon: horizon, Step: step}
}
