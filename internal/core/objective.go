package core

import (
	"math"

	"netembed/internal/graph"
	"netembed/internal/sets"
)

// This file is the objective layer behind Options.Optimize: three
// built-in cost functions over complete mappings, a canonical evaluator
// (the enumerate-and-argmin oracle and the repair tie-break both use
// it), and the compiled per-search form the branch-and-bound engine in
// fc.go consults on its hot path — precomputed per-host terms, plus
// admissible per-node lower bounds derived from the live candidate
// domains.

// ObjectiveKind names a built-in objective function.
type ObjectiveKind int

// The built-in objectives.
const (
	// ObjectiveNone is the zero value: no objective, plain enumeration.
	ObjectiveNone ObjectiveKind = iota
	// ObjectiveAttrCost minimizes the weighted sum of a numeric host
	// attribute (Attr, e.g. a per-node price) over the assigned hosts.
	// Hosts lacking the attribute cost 0. Additive.
	ObjectiveAttrCost
	// ObjectiveLoadBalance minimizes the worst per-host slot utilization:
	// the cost is max over assigned hosts of Weight/slots(r), with slots
	// read from Attr (default "slots", missing or <1 reads as 1). Since
	// the search is injective each host carries one query node, so
	// utilization is 1/slots and the optimum packs the embedding onto the
	// roomiest hosts. Max-composed.
	ObjectiveLoadBalance
	// ObjectiveEnergy minimizes the hosts a plan must power on: every
	// distinct assigned host that is not already active (Attr, default
	// "active", ≥ 1) costs Weight. Consolidating onto the powered-on
	// fleet — LNS/Consolidate's goal — becomes the search objective; with
	// no host marked active every used host counts, i.e. the cost is the
	// number of distinct hosts used. Additive.
	ObjectiveEnergy
)

// Objective selects and parameterizes an optimizing search's cost
// function. It is a pure value (no closures) so it can join the engine's
// request fingerprint byte-for-byte.
type Objective struct {
	// Kind picks the built-in; ObjectiveNone disables optimization.
	Kind ObjectiveKind
	// Attr is the host attribute the objective reads. Defaults per kind:
	// required for ObjectiveAttrCost, "slots" for ObjectiveLoadBalance,
	// "active" for ObjectiveEnergy.
	Attr string
	// Weight scales every term (default 1). ObjectiveAttrCost accepts
	// negative weights (maximize the attribute sum).
	Weight float64
}

// Enabled reports whether the objective selects a real cost function.
func (o Objective) Enabled() bool { return o.Kind != ObjectiveNone }

// Normalized returns the objective with the per-kind Attr/Weight
// defaults applied — the exact form the search evaluates, so callers
// (e.g. the service layer's attribute-typo warnings) can inspect which
// attribute a request will actually read.
func (o Objective) Normalized() Objective {
	if o.Weight == 0 {
		o.Weight = 1
	}
	if o.Attr == "" {
		switch o.Kind {
		case ObjectiveLoadBalance:
			o.Attr = "slots"
		case ObjectiveEnergy:
			o.Attr = "active"
		}
	}
	return o
}

// additive reports the composition: additive objectives sum their
// per-assignment terms, the rest (load balance) take the maximum.
func (o Objective) additive() bool { return o.Kind != ObjectiveLoadBalance }

// termOn evaluates one assignment's contribution on host node r. The
// receiver must be normalized.
func (o Objective) termOn(host *graph.Graph, r graph.NodeID) float64 {
	switch o.Kind {
	case ObjectiveAttrCost:
		v, _ := host.Node(r).Attrs.Float(o.Attr) // missing = 0
		return o.Weight * v
	case ObjectiveLoadBalance:
		slots, ok := host.Node(r).Attrs.Float(o.Attr)
		if !ok || slots < 1 {
			slots = 1
		}
		return o.Weight / slots
	case ObjectiveEnergy:
		if v, ok := host.Node(r).Attrs.Float(o.Attr); ok && v >= 1 {
			return 0
		}
		return o.Weight
	default:
		return 0
	}
}

// Cost evaluates the objective over a complete mapping on host. It is
// the canonical (order-independent for the built-ins) evaluation every
// layer agrees on: the B&B incumbent's reported cost, the exhaustive
// enumerate-and-argmin oracle, and SeededRepair's tie-break all call it.
func (o Objective) Cost(host *graph.Graph, m Mapping) float64 {
	o = o.Normalized()
	if !o.Enabled() {
		return 0
	}
	cost := 0.0
	for i, r := range m {
		t := o.termOn(host, r)
		if o.additive() {
			cost += t
		} else if i == 0 || t > cost {
			cost = t
		}
	}
	return cost
}

// objectiveEval is the compiled per-search form: per-host terms
// materialized once and the composition mode resolved.
type objectiveEval struct {
	obj      Objective // normalized
	additive bool
	// terms[r] is the objective contribution of assigning any query node
	// to host r.
	terms []float64
	// active, for ObjectiveEnergy, is the powered-on host set: a domain
	// intersecting it has lower bound 0, otherwise Weight.
	active *sets.Bitset
	// monotone is true when folding further terms can never lower a
	// partial bound — max composition, or additive with no negative term.
	// Only then is a prefix cost itself a valid lower bound on its
	// completions, letting the search cut before folding every remaining
	// node; with negative terms in play the comparison must wait for the
	// full fold.
	monotone bool
}

// compileObjective materializes the evaluator for one search run. Every
// term is read from host itself, a reservation overlay included, so the
// bounds describe the very graph being searched.
func compileObjective(o Objective, host *graph.Graph) *objectiveEval {
	o = o.Normalized()
	nr := host.NumNodes()
	e := &objectiveEval{obj: o, additive: o.additive(), terms: make([]float64, nr)}
	e.monotone = true
	for r := 0; r < nr; r++ {
		e.terms[r] = o.termOn(host, graph.NodeID(r))
		if e.additive && e.terms[r] < 0 {
			e.monotone = false
		}
	}
	// Negative-weight energy flips the extremum: the cheapest term is an
	// inactive host's, which the intersects-active probe cannot see — only
	// the domain scan is admissible there.
	if o.Kind == ObjectiveEnergy && o.Weight >= 0 {
		e.active = sets.NewBitset(nr)
		for r := 0; r < nr; r++ {
			if e.terms[r] == 0 {
				e.active.Set(graph.NodeID(r))
			}
		}
	}
	return e
}

// combine folds one term into a partial cost under the composition.
func (e *objectiveEval) combine(partial, term float64) float64 {
	if e.additive {
		return partial + term
	}
	return math.Max(partial, term)
}

// lowerBound computes an admissible bound on the term any completion can
// contribute for a query node whose live domain is dom: the minimum term
// over the domain. Injectivity only shrinks the usable domain, so the
// unrestricted minimum stays a valid lower bound.
func (e *objectiveEval) lowerBound(dom *sets.Bitset) float64 {
	if e.active != nil {
		// Energy: any still-reachable active host zeroes the term.
		if dom.Intersects(e.active) {
			return 0
		}
		return e.obj.Weight
	}
	// An empty domain reads 0: the caller is about to wipe out anyway.
	lb, _ := dom.MinOver(e.terms)
	return lb
}
