package engine

import (
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/service"
)

// goldenQuery is a fixed 4-node ring with delay windows on its edges.
func goldenQuery() *graph.Graph {
	g := graph.NewUndirected()
	ids := make([]graph.NodeID, 4)
	for i, name := range []string{"v0", "v1", "v2", "v3"} {
		ids[i] = g.AddNode(name, nil)
	}
	for i := range ids {
		lo := float64(10 * (i + 1))
		g.MustAddEdge(ids[i], ids[(i+1)%len(ids)], graph.Attrs{}.SetNum("minDelay", lo).SetNum("maxDelay", lo+7.25))
	}
	return g
}

// goldenRequests are the three requests TestRequestKeyGolden pins: a
// plain query; one with an objective, path metrics, consolidation
// options and an allow map; and one whose query carries string and bool
// attributes.
func goldenRequests() map[string]service.Request {
	return map[string]service.Request{
		"plain": {
			Query:          goldenQuery(),
			EdgeConstraint: "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay",
			Algorithm:      service.AlgoECF,
			MaxResults:     1,
		},
		"objective_metrics_allow": {
			Query:          goldenQuery(),
			NodeConstraint: "rNode.cpu >= 2",
			Algorithm:      service.AlgoPathEmbed,
			Timeout:        1500 * time.Millisecond,
			MaxResults:     4,
			Seed:           -7,
			Optimize:       true,
			Objective:      core.Objective{Kind: core.ObjectiveAttrCost, Attr: "price", Weight: 0.5},
			Consolidate: core.ConsolidateOptions{
				CapacityAttr:    "slots",
				DemandAttr:      "need",
				DefaultCapacity: 3,
				Loopback:        graph.Attrs{}.SetNum("avgDelay", 0).SetStr("kind", "lo"),
			},
			Path: service.PathRequestOptions{
				MaxHops:   3,
				DelayAttr: "avgDelay",
				WindowLo:  "minDelay",
				WindowHi:  "maxDelay",
				Metrics: []core.MetricSpec{
					{Attr: "avgDelay", Rule: core.Additive, LoAttr: "minDelay", HiAttr: "maxDelay"},
					{Attr: "bandwidth", Rule: core.Bottleneck, LoAttr: "minBandwidth", MissingEdge: 1e9, MissingFails: true},
				},
			},
			Allow: map[string][]string{"v2": {"h9", "h1"}, "v0": {"h3", "h2", "h7"}},
		},
		"string_bool_attrs": {
			Query:           attrQuery(),
			NodeConstraint:  `rNode.os == vNode.os && (!vNode.gpu || rNode.gpu)`,
			Algorithm:       service.AlgoRWB,
			MaxResults:      2,
			Seed:            42,
			DedupeSymmetric: true,
		},
	}
}

// TestRequestKeyGolden pins the fingerprint bytes: the digests below were
// computed by the hash.Hash-fed requestKey that preceded the pooled byte
// stream, and regenerated once when the time budget left the stream, so
// any drift in the stream's framing fails here rather than as a silent
// cache miss (or, worse, an alias) in production.
func TestRequestKeyGolden(t *testing.T) {
	want := map[string]string{
		"plain":                   "ab809f9346a4a1e70fa366e8a8442bd29eca7a514a13f6c3f1fd366edf6de77f",
		"objective_metrics_allow": "17886f737496c1c406916116898630c43fdd562e990fde8ad3c5a7b8f94bef24",
		"string_bool_attrs":       "4ca03635e9e3170988500a831579166605ad867d20baa8a4de1f9cb7ac6e6690",
	}
	for name, req := range goldenRequests() {
		got, ok := requestKey(req)
		if !ok {
			t.Fatalf("%s: unexpectedly uncacheable", name)
		}
		if got != want[name] {
			t.Errorf("%s: key %s, want %s", name, got, want[name])
		}
	}
}

// TestRequestKeyAllocs bounds the fingerprint's allocations: the stream
// and the sort buffers are recycled, leaving the key string itself.
func TestRequestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's sync.Pool drops recycled buffers at random")
	}
	for name, req := range goldenRequests() {
		requestKey(req) // prime the pool
		if avg := testing.AllocsPerRun(100, func() { requestKey(req) }); avg > 3 {
			t.Errorf("%s: requestKey allocates %.1f/op, want ≤ 3", name, avg)
		}
	}
}
