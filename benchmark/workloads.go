package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service/httpapi"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// kind names an operation class; client.<kind>_p50_ms reports each one.
type kind uint8

const (
	kECF kind = iota
	kRWB
	kNoMatch
	kOptimize
	kPECF
	kRead
	kDeltaAttr
	kDeltaStruct
	kLocal
	kSpan
	numKinds
)

var kindNames = [numKinds]string{"ecf", "rwb", "nomatch", "optimize", "pecf", "read", "delta_attr", "delta_struct", "local", "span"}

// expect is what a correct server must answer.
type expect uint8

const (
	// expectMapping: a planted query — at least one mapping, all valid.
	expectMapping expect = iota
	// expectNone: provably infeasible — status complete, zero mappings.
	expectNone
	// expectOptimum: expectMapping plus an objectiveCost.
	expectOptimum
	// expectMappingOrInconclusive: a planted region-spanning query. A
	// valid mapping is an answer; `inconclusive` is a legal no-proof reply
	// that lowers answered_ratio; `complete` with none is wrong.
	expectMappingOrInconclusive
	// expectDelta: 200 with the new model version.
	expectDelta
)

// Constraint sources the workloads send.
const (
	// windowConstraint is the paper's delay-window containment (§VII-A).
	windowConstraint = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"
	// readConstraint is served from the index's node strata alone.
	readConstraint = "rNode.cpu >= vNode.cpu && rNode.osType == vNode.osType"
	// managedConstraint ties managed embeddings to the attribute the
	// churn deltas drift, so the lifecycle tier has repairs to do.
	managedConstraint = "rNode.mem >= vNode.mem"
	// seedConstraint pins topo.SkewedRing's seed node.
	seedConstraint = "!has(vNode.seed) || has(rNode.seed)"
)

// op is one request of a workload's deterministic sequence, with what the
// checker and the traced replay need to know about it.
type op struct {
	kind   kind
	expect expect
	path   string // "/embed", "/deltas" or "/embeddings"
	body   []byte

	// wire and query are set for embed ops, delta for delta ops.
	wire  *httpapi.EmbedRequest
	query *graph.Graph
	delta *graph.Delta
}

// scale sizes the fixtures. fullScale is the benchmark; the smoke test
// shrinks everything so the whole program runs in seconds under -race.
type scale struct {
	sites        int // synthetic PlanetLab sites (296 = the paper's trace)
	novelQueries int
	hotBodies    int
	readBodies   int
	placements   int
	fedQueries   int
	ringM        int // topo.SkewedRing bipartite side
	ringDecoys   int
	ringLen      int
	proofOps     int
	traceSample  map[string]int // ops per workload in the staged replay
	pathRequests int
}

var fullScale = scale{
	sites: 296, novelQueries: 2048, hotBodies: 32, readBodies: 64, placements: 32,
	fedQueries: 4096, ringM: 16, ringDecoys: 6, ringLen: 7, proofOps: 4096,
	traceSample: map[string]int{
		"novel_constrained": 10, "repeat_hot": 1000, "proof_hard": 40,
		"churn_mixed": 600, "federated": 60,
	},
	pathRequests: 10,
}

// fixture is a workload's generated input: everything derives from the
// seed, and the program under test only ever sees the request bodies.
type fixture struct {
	host *graph.Graph
	// hostFn rebuilds host; boot times it as part of set-up and serves
	// the rebuilt (identical) graph.
	hostFn     func() *graph.Graph
	ops        []*op // consumed cyclically; cyclic replay is consistent by construction
	placements []*op // POST /embeddings bodies issued during set-up
	federated  bool
	// hot marks a fixture whose every request is answered from the
	// caches; the staged replay then walks the hit path.
	hot bool
	// verifyEvery thins full answer verification of read ops to one in
	// n; every other reply still gets the cheap status check.
	verifyEvery int
}

type workload struct {
	name    string
	why     string
	clients int
	build   func(seed int64, sc scale) (*fixture, error)
}

// workloads lists the five traffic mixes; names are the contract
// BENCHMARK.json and every later performance claim refer to.
var workloads = []workload{
	{
		name:    "novel_constrained",
		why:     "never-seen 8-node/12-edge delay-window queries on the paper-sized host: every cache misses and core.BuildFilters does nearly all the work",
		clients: 2,
		build:   buildNovel,
	},
	{
		name:    "repeat_hot",
		why:     "32 bodies resubmitted verbatim: result cache and decode LRU always hit, isolating httpapi codec + engine submit + loopback; filter/search changes must not move it",
		clients: 1, // serial per-request path; two clients on two cores measured the scheduler
		build:   buildHot,
	},
	{
		name:    "proof_hard",
		why:     "infeasible odd-ring on topo.SkewedRing with a jittered window: the forward-checking tree search does ~97% of the work and BuildFilters none, the mirror of novel_constrained",
		clients: 2,
		build:   buildProof,
	},
	{
		name:    "churn_mixed",
		why:     "80% index-served reads beside 20% POST /deltas with 32 managed embeddings: write-side cost of index/engine-cache/model/lifecycle shows next to the reads it invalidates",
		clients: 2,
		build:   buildChurn,
	},
	{
		name:    "federated",
		why:     "6 region shards behind a coordinator over loopback, 3 local : 2 region-spanning planted queries: the only mix where routing, serial probing, fragment RTT and join do the work",
		clients: 2,
		build:   buildFederated,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hostSeed is cmd/netembedd's default -seed: the hosting network is the
// one a daemon started with no flags serves, on every run. The workload
// seed varies what is asked of it (queries, deltas, jitter), not the host,
// so that two seeds differ by their requests alone.
const hostSeed = 1

// planetLab synthesizes the daemon's default hosting network.
func planetLab(sc scale) *graph.Graph {
	return trace.SyntheticPlanetLab(trace.Config{Sites: sc.sites}, rand.New(rand.NewSource(hostSeed)))
}

// embedOp renders one /embed request.
func embedOp(k kind, ex expect, q *graph.Graph, wire httpapi.EmbedRequest) (*op, error) {
	xml, err := graphml.EncodeString(q)
	if err != nil {
		return nil, err
	}
	wire.QueryGraphML = xml
	body, err := json.Marshal(&wire)
	if err != nil {
		return nil, err
	}
	return &op{kind: k, expect: ex, path: "/embed", body: body, wire: &wire, query: q}, nil
}

// plantedQuery samples a connected subgraph of host and turns its copied
// delay measurements into ±10% acceptance windows, so the identity
// placement is a witness.
func plantedQuery(host *graph.Graph, nodes, edges int, rng *rand.Rand) (*graph.Graph, []graph.NodeID, error) {
	q, plant, err := topo.Subgraph(host, nodes, edges, rng)
	if err != nil {
		return nil, nil, err
	}
	topo.WidenDelayWindows(q, 0.1)
	return q, plant, nil
}

// novelPattern is the 55/15/15/15 mix laid out over 20 slots.
var novelPattern = [20]kind{
	kECF, kRWB, kNoMatch, kOptimize, kECF, kECF, kECF, kRWB, kNoMatch, kOptimize,
	kECF, kECF, kECF, kRWB, kNoMatch, kOptimize, kECF, kECF, kECF, kECF,
}

func buildNovel(seed int64, sc scale) (*fixture, error) {
	host := planetLab(sc)
	rng := rand.New(rand.NewSource(seed ^ 0x6e6f76656c))
	fx := &fixture{host: host, hostFn: func() *graph.Graph { return planetLab(sc) }, verifyEvery: 1}
	for i := 0; i < sc.novelQueries; i++ {
		q, _, err := plantedQuery(host, 8, 12, rng)
		if err != nil {
			return nil, err
		}
		k := novelPattern[i%len(novelPattern)]
		wire := httpapi.EmbedRequest{EdgeConstraint: windowConstraint, Algorithm: "ecf", MaxResults: 1}
		ex := expectMapping
		switch k {
		case kRWB:
			wire.Algorithm, wire.Seed = "rwb", int64(i)+1
		case kNoMatch:
			topo.MakeInfeasible(q, 2, rng)
			ex = expectNone
		case kOptimize:
			wire.MaxResults = 0
			wire.Objective = &httpapi.ObjectiveJSON{Kind: "load-balance"}
			ex = expectOptimum
		}
		o, err := embedOp(k, ex, q, wire)
		if err != nil {
			return nil, err
		}
		fx.ops = append(fx.ops, o)
	}
	return fx, nil
}

func buildHot(seed int64, sc scale) (*fixture, error) {
	host := planetLab(sc)
	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	fx := &fixture{host: host, hostFn: func() *graph.Graph { return planetLab(sc) }, hot: true, verifyEvery: 1}
	for i := 0; i < sc.hotBodies; i++ {
		q, _, err := plantedQuery(host, 8, 12, rng)
		if err != nil {
			return nil, err
		}
		o, err := embedOp(kECF, expectMapping, q, httpapi.EmbedRequest{EdgeConstraint: windowConstraint, Algorithm: "ecf", MaxResults: 1})
		if err != nil {
			return nil, err
		}
		fx.ops = append(fx.ops, o)
	}
	return fx, nil
}

// proofPattern is the 60/20/20 ecf/rwb/parallel-ecf mix.
var proofPattern = [5]kind{kECF, kECF, kRWB, kECF, kPECF}

func buildProof(seed int64, sc scale) (*fixture, error) {
	ring, host := topo.SkewedRing(sc.ringM, sc.ringDecoys, sc.ringLen)
	fx := &fixture{host: host, verifyEvery: 1, hostFn: func() *graph.Graph {
		_, h := topo.SkewedRing(sc.ringM, sc.ringDecoys, sc.ringLen)
		return h
	}}
	// The seed only rotates where the jitter sequence starts: the tree
	// is the same for every δ, which is what makes the workload's counts
	// seed-independent.
	offset := int(uint64(seed) % 997)
	for i := 0; i < sc.proofOps; i++ {
		delta := float64((offset+i)%4999+1) * 0.001
		q := ring.Clone()
		topo.SetDelayWindow(q, 40+delta, 60-delta)
		k := proofPattern[i%len(proofPattern)]
		wire := httpapi.EmbedRequest{EdgeConstraint: windowConstraint, NodeConstraint: seedConstraint, Algorithm: "ecf"}
		switch k {
		case kRWB:
			wire.Algorithm, wire.Seed = "rwb", int64(i)+1
		case kPECF:
			wire.Algorithm = "parallel-ecf"
		}
		o, err := embedOp(k, expectNone, q, wire)
		if err != nil {
			return nil, err
		}
		fx.ops = append(fx.ops, o)
	}
	return fx, nil
}

// edgeKey identifies an undirected host edge by endpoint IDs.
func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	if v < u {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// attrsWire renders an attribute bag in the /deltas wire form.
func attrsWire(a graph.Attrs) map[string]any {
	out := make(map[string]any, len(a))
	for name, v := range a {
		if f, ok := v.Float(); ok {
			out[name] = f
		} else if s, ok := v.Text(); ok {
			out[name] = s
		} else if b, ok := v.Truth(); ok {
			out[name] = b
		}
	}
	return out
}

// deltaOp renders a graph.Delta as a POST /deltas request.
func deltaOp(d *graph.Delta) (*op, error) {
	var wire httpapi.DeltaRequest
	for _, r := range d.RemoveEdges {
		wire.RemoveEdges = append(wire.RemoveEdges, httpapi.DeltaEdgeRef{Source: r.Source, Target: r.Target})
	}
	for _, e := range d.AddEdges {
		wire.AddEdges = append(wire.AddEdges, httpapi.DeltaEdge{Source: e.Source, Target: e.Target, Attrs: attrsWire(e.Attrs)})
	}
	for _, n := range d.SetNodeAttrs {
		wire.SetNodeAttrs = append(wire.SetNodeAttrs, httpapi.DeltaNodeAttrs{Node: n.Node, Attrs: attrsWire(n.Set)})
	}
	for _, e := range d.SetEdgeAttrs {
		wire.SetEdgeAttrs = append(wire.SetEdgeAttrs, httpapi.DeltaEdgeAttrs{Source: e.Source, Target: e.Target, Attrs: attrsWire(e.Set)})
	}
	body, err := json.Marshal(&wire)
	if err != nil {
		return nil, err
	}
	k := kDeltaAttr
	if d.Structural() {
		k = kDeltaStruct
	}
	return &op{kind: k, expect: expectDelta, path: "/deltas", body: body, delta: d}, nil
}

// churnSlots is one period of the churn mix: 80 ops, 4 reads in 5, and
// of the 16 deltas 15 attribute drifts and one structural edit. Periods
// alternate removing an edge and adding it back, so the sequence closes
// on the structure it started from and can be replayed cyclically.
const churnSlots = 80

func buildChurn(seed int64, sc scale) (*fixture, error) {
	host := planetLab(sc)
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	fx := &fixture{host: host, hostFn: func() *graph.Graph { return planetLab(sc) }, verifyEvery: 16}

	// Reads: planted topology + node-constraint queries. Their planted
	// edges are protected from structural deltas, and node drift touches
	// only `mem`, which the read constraint ignores — so every read stays
	// satisfiable at every model version.
	protected := map[[2]graph.NodeID]bool{}
	var reads []*op
	for i := 0; i < sc.readBodies; i++ {
		q, plant, err := topo.Subgraph(host, 8, 12, rng)
		if err != nil {
			return nil, err
		}
		for e := 0; e < q.NumEdges(); e++ {
			ed := q.Edge(graph.EdgeID(e))
			protected[edgeKey(plant[ed.From], plant[ed.To])] = true
		}
		o, err := embedOp(kRead, expectMapping, q, httpapi.EmbedRequest{NodeConstraint: readConstraint, Algorithm: "ecf", MaxResults: 1})
		if err != nil {
			return nil, err
		}
		reads = append(reads, o)
	}

	// Managed embeddings placed at set-up.
	for i := 0; i < sc.placements; i++ {
		q, _, err := topo.Subgraph(host, 4, 4, rng)
		if err != nil {
			return nil, err
		}
		o, err := embedOp(kRead, expectMapping, q, httpapi.EmbedRequest{NodeConstraint: managedConstraint, Algorithm: "ecf"})
		if err != nil {
			return nil, err
		}
		o.path = "/embeddings"
		fx.placements = append(fx.placements, o)
	}

	// Delta element pools: shuffled once, walked in order, so any two
	// deltas closer than a pool's length over its stride touch disjoint
	// elements — far more than the 8 positions two clients can reorder.
	nodePerm := rng.Perm(host.NumNodes())
	var free []graph.EdgeID
	for e := 0; e < host.NumEdges(); e++ {
		ed := host.Edge(graph.EdgeID(e))
		if !protected[edgeKey(ed.From, ed.To)] {
			free = append(free, graph.EdgeID(e))
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	// Every period consumes 64 read slots, so any whole number of periods
	// closes the read cycle when readBodies divides 64; an even number
	// closes the remove/add pairs.
	periods := 2 * sc.readBodies
	if len(free) < periods+8*4 {
		return nil, fmt.Errorf("churn: host has only %d unprotected edges", len(free))
	}
	structPool, attrPool := free[:periods/2], free[periods/2:]
	name := func(id graph.NodeID) string { return host.Node(id).Name }

	nextRead, nextAttr := 0, 0
	for p := 0; p < periods; p++ {
		victim := host.Edge(structPool[p/2])
		for slot := 0; slot < churnSlots; slot++ {
			if slot%5 != 2 {
				fx.ops = append(fx.ops, reads[nextRead%len(reads)])
				nextRead++
				continue
			}
			var d graph.Delta
			switch {
			case slot == 42 && p%2 == 0:
				d.RemoveEdges = []graph.EdgeRef{{Source: name(victim.From), Target: name(victim.To)}}
			case slot == 42:
				d.AddEdges = []graph.EdgeSpec{{Source: name(victim.From), Target: name(victim.To), Attrs: victim.Attrs.Clone()}}
			default:
				for j := 0; j < 4; j++ {
					n := graph.NodeID(nodePerm[(4*nextAttr+j)%len(nodePerm)])
					d.SetNodeAttrs = append(d.SetNodeAttrs, graph.NodeAttrUpdate{
						Node: name(n), Set: graph.Attrs{}.SetNum("mem", float64(512*(1+rng.Intn(8)))),
					})
					ed := host.Edge(attrPool[(4*nextAttr+j)%len(attrPool)])
					avg, _ := ed.Attrs.Float(topo.AttrAvgDelay)
					d.SetEdgeAttrs = append(d.SetEdgeAttrs, graph.EdgeAttrUpdate{
						Source: name(ed.From), Target: name(ed.To),
						Set: graph.Attrs{}.SetNum(topo.AttrAvgDelay, avg*(0.95+0.1*rng.Float64())),
					})
				}
				nextAttr++
			}
			o, err := deltaOp(&d)
			if err != nil {
				return nil, err
			}
			fx.ops = append(fx.ops, o)
		}
	}
	return fx, nil
}

// fedPattern is 3 local : 2 spanning. An even split would put the median
// latency exactly on the gap between the two modes (≈4 ms and ≈14 ms),
// where it flips from run to run.
var fedPattern = [5]kind{kLocal, kSpan, kLocal, kSpan, kLocal}

func buildFederated(seed int64, sc scale) (*fixture, error) {
	host := planetLab(sc)
	rng := rand.New(rand.NewSource(seed ^ 0x666564))
	fx := &fixture{host: host, hostFn: func() *graph.Graph { return planetLab(sc) }, federated: true, verifyEvery: 1}

	// Regions large enough to plant a 4-node query inside.
	var slices []*graph.Graph
	for _, region := range regionsOf(host) {
		slice, err := regionSlice(host, region)
		if err != nil {
			return nil, err
		}
		if slice.NumNodes() >= 6 {
			slices = append(slices, slice)
		}
	}
	if len(slices) == 0 {
		return nil, fmt.Errorf("federated: no region holds 6 nodes")
	}
	regionOf := func(id graph.NodeID) string {
		label, _ := host.Node(id).Attrs.Text(defaultRegionAttr)
		return label
	}
	wire := httpapi.EmbedRequest{EdgeConstraint: windowConstraint, Algorithm: "ecf", MaxResults: 1}
	nextSlice := 0
	for i := 0; i < sc.fedQueries; i++ {
		var q *graph.Graph
		k, ex := kLocal, expectMapping
		if fedPattern[i%len(fedPattern)] == kLocal {
			var err error
			if q, _, err = plantedQuery(slices[nextSlice%len(slices)], 4, 4, rng); err != nil {
				return nil, err
			}
			nextSlice++
		} else {
			k, ex = kSpan, expectMappingOrInconclusive
			for {
				cand, plant, err := plantedQuery(host, 4, 4, rng)
				if err != nil {
					return nil, err
				}
				spans := false
				for _, h := range plant[1:] {
					spans = spans || regionOf(h) != regionOf(plant[0])
				}
				if spans {
					q = cand
					break
				}
			}
		}
		o, err := embedOp(k, ex, q, wire)
		if err != nil {
			return nil, err
		}
		fx.ops = append(fx.ops, o)
	}
	return fx, nil
}
