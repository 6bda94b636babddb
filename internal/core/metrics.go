package core

import (
	"fmt"

	"netembed/internal/graph"
)

// Compose names how a link metric accumulates along a hosting path. The
// paper's introduction lists delay, bandwidth, loss rate and jitter as
// the link characteristics applications constrain; each composes
// differently over multi-hop paths.
type Compose int

// Metric composition rules.
const (
	// Additive metrics sum along the path (delay, jitter, hop cost).
	Additive Compose = iota
	// Bottleneck metrics take the minimum along the path (bandwidth).
	Bottleneck
	// Multiplicative metrics compose as products (availability, or
	// 1-loss when the attribute stores success probability).
	Multiplicative
)

func (c Compose) String() string {
	switch c {
	case Additive:
		return "additive"
	case Bottleneck:
		return "bottleneck"
	case Multiplicative:
		return "multiplicative"
	default:
		return fmt.Sprintf("Compose(%d)", int(c))
	}
}

// MetricSpec constrains one composed metric of a witness path: the hosting
// edges' Attr values, composed by Rule, must land within the window given
// by the query edge's LoAttr/HiAttr attributes (either may be absent on a
// query edge, leaving that side unbounded).
type MetricSpec struct {
	// Attr is the hosting-edge attribute to compose (e.g. "avgDelay",
	// "bandwidth", "availability").
	Attr string
	// Rule selects the composition.
	Rule Compose
	// LoAttr/HiAttr name the query-edge attributes bounding the composed
	// value (e.g. "minDelay"/"maxDelay", "minBandwidth"/"").
	LoAttr, HiAttr string
	// MissingEdge is the value assumed when a hosting edge lacks Attr:
	// for Additive metrics the neutral 0 is typical; for Bottleneck a
	// missing bandwidth should usually disqualify (set MissingFails).
	MissingEdge float64
	// MissingFails rejects paths containing an edge without Attr.
	MissingFails bool
}

// composeAlong folds the metric over the path's edges. The second result
// is false when MissingFails tripped.
func (m MetricSpec) composeAlong(host *graph.Graph, edges []graph.EdgeID) (float64, bool) {
	var acc float64
	switch m.Rule {
	case Bottleneck:
		acc = 0 // replaced by the first edge's value below
	case Multiplicative:
		acc = 1
	default:
		acc = 0
	}
	for i, e := range edges {
		v, ok := host.Edge(e).Attrs.Float(m.Attr)
		if !ok {
			if m.MissingFails {
				return 0, false
			}
			v = m.MissingEdge
		}
		switch m.Rule {
		case Additive:
			acc += v
		case Bottleneck:
			if i == 0 || v < acc {
				acc = v
			}
		case Multiplicative:
			acc *= v
		}
	}
	return acc, true
}

// withinWindow checks the composed value against the query edge's window
// attributes; absent attributes leave that side unbounded.
func (m MetricSpec) withinWindow(qe *graph.Edge, v float64) bool {
	if m.LoAttr != "" {
		if lo, ok := qe.Attrs.Float(m.LoAttr); ok && v < lo {
			return false
		}
	}
	if m.HiAttr != "" {
		if hi, ok := qe.Attrs.Float(m.HiAttr); ok && v > hi {
			return false
		}
	}
	return true
}

// pathMetricsOK evaluates every spec over a candidate witness path.
func pathMetricsOK(host *graph.Graph, qe *graph.Edge, edges []graph.EdgeID, specs []MetricSpec) bool {
	for _, spec := range specs {
		v, ok := spec.composeAlong(host, edges)
		if !ok || !spec.withinWindow(qe, v) {
			return false
		}
	}
	return true
}

// WitnessCost checks a candidate witness path — its hosting edges, in
// order — for query edge qe against every spec, and returns the first
// spec's composed value: the witness's cost.
func WitnessCost(host *graph.Graph, qe *graph.Edge, edges []graph.EdgeID, specs []MetricSpec) (float64, bool) {
	if len(specs) == 0 || !pathMetricsOK(host, qe, edges, specs) {
		return 0, len(specs) == 0
	}
	cost, _ := specs[0].composeAlong(host, edges)
	return cost, true
}

// DefaultDelaySpec is the single-metric behavior of PathEmbed before
// multi-metric support: additive delay bounded by minDelay/maxDelay.
func DefaultDelaySpec(delayAttr, loAttr, hiAttr string) MetricSpec {
	return MetricSpec{
		Attr:   delayAttr,
		Rule:   Additive,
		LoAttr: loAttr,
		HiAttr: hiAttr,
	}
}
