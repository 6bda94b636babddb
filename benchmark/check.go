package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/service/httpapi"
)

// verdict classifies one reply after checking it off the clock.
type verdict uint8

const (
	// vOK: the expected definite answer, every checked mapping valid.
	vOK verdict = iota
	// vNoProof: a region-spanning planted query answered `inconclusive`.
	// Legal (§VII-E) and not a failed operation, but not an answer
	// either: it lowers answered_ratio and throughput_rps.
	vNoProof
	// vHTTP: transport error, non-2xx, or 429.
	vHTTP
	// vInvalid: a returned mapping failed core.Problem.Verify.
	vInvalid
	// vWrong: a definite answer that is wrong (a planted query answered
	// "no match", an infeasible one answered with a mapping, a missing
	// objectiveCost) or `inconclusive` where a single model must decide.
	vWrong
)

// checker re-derives every answer from the benchmark's own copy of the
// host. It never consults the server under test.
type checker struct {
	fx    *fixture
	progs map[string]*expr.Program
	// byHash remembers the verdict of each distinct reply body, so a
	// reply whose bytes were already verified (repeat_hot resubmits) is
	// not decoded again.
	byHash map[uint64]verdict
}

func newChecker(fx *fixture) *checker {
	return &checker{fx: fx, progs: map[string]*expr.Program{}, byHash: map[uint64]verdict{}}
}

func (c *checker) program(src string) (*expr.Program, error) {
	if src == "" {
		return nil, nil
	}
	if p, ok := c.progs[src]; ok {
		return p, nil
	}
	p, err := expr.Compile(src)
	if err != nil {
		return nil, err
	}
	c.progs[src] = p
	return p, nil
}

// verifyMappings resolves each returned mapping by name against host and
// checks it with core.Problem.Verify. removed lists host edges (by
// endpoint names, see edgeNames) that exist in host but not in the model
// version being checked; a mapping that uses one is invalid.
func (c *checker) verifyMappings(o *op, host *graph.Graph, removed map[[2]string]bool, mappings []map[string]string) error {
	edgeProg, err := c.program(o.wire.EdgeConstraint)
	if err != nil {
		return err
	}
	nodeProg, err := c.program(o.wire.NodeConstraint)
	if err != nil {
		return err
	}
	p, err := core.NewProblem(o.query, host, edgeProg, nodeProg)
	if err != nil {
		return err
	}
	for _, named := range mappings {
		if len(named) != o.query.NumNodes() {
			return fmt.Errorf("mapping names %d of %d query nodes", len(named), o.query.NumNodes())
		}
		m := make(core.Mapping, o.query.NumNodes())
		for qName, hName := range named {
			q, ok := o.query.NodeByName(qName)
			if !ok {
				return fmt.Errorf("mapping names unknown query node %q", qName)
			}
			h, ok := host.NodeByName(hName)
			if !ok {
				return fmt.Errorf("mapping names unknown host node %q", hName)
			}
			m[q] = h
		}
		if err := p.Verify(m); err != nil {
			return err
		}
		for e := 0; len(removed) > 0 && e < o.query.NumEdges(); e++ {
			qe := o.query.Edge(graph.EdgeID(e))
			if removed[edgeNames(host.Node(m[qe.From]).Name, host.Node(m[qe.To]).Name)] {
				return fmt.Errorf("query edge %d rides a host edge removed at this model version", e)
			}
		}
	}
	return nil
}

// edgeNames keys an undirected host edge by its endpoint names.
func edgeNames(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// quick judges a reply from the status scan alone.
func quick(o *op, s *sample) verdict {
	if s.code != http.StatusOK {
		return vHTTP
	}
	switch o.expect {
	case expectDelta:
		return vOK
	case expectNone:
		if s.status == statusComplete && s.empty {
			return vOK
		}
		return vWrong
	case expectMappingOrInconclusive:
		if s.status == statusInconclusive && s.empty {
			return vNoProof
		}
	}
	if (s.status == statusComplete || s.status == statusPartial) && !s.empty {
		return vOK
	}
	return vWrong
}

// full decodes the reply and verifies its mappings against host.
func (c *checker) full(o *op, s *sample, host *graph.Graph, removed map[[2]string]bool) verdict {
	var reply httpapi.EmbedResponse
	if err := json.Unmarshal(s.body, &reply); err != nil {
		return vWrong
	}
	if v := quick(o, s); v != vOK || o.expect == expectNone {
		return v
	}
	if o.expect == expectOptimum && reply.ObjectiveCost == nil {
		return vWrong
	}
	if err := c.verifyMappings(o, host, removed, reply.Mappings); err != nil {
		return vInvalid
	}
	return vOK
}

// judge returns one verdict per sample. For fixtures with deltas it first
// rebuilds the model's history: acknowledged deltas are replayed in the
// order of the versions the server returned into a shadow of the model,
// and each verified read is checked against the shadow at its reply's
// modelVersion.
//
// The shadow is a graph plus a set of removed edges. Attribute deltas go
// through graph.ApplyDelta (copy-on-write, microseconds). Structural
// ones do not: ApplyDelta rebuilds all 29k edges per structural delta
// (≈20 ms), and a run acknowledges hundreds of them, so replaying them
// off the clock would outlast the run. The generator only ever removes
// an edge of the original host or adds one back unchanged, so "the host
// minus the currently removed edges" is the model exactly.
func (c *checker) judge(samples []sample) []verdict {
	out := make([]verdict, len(samples))
	type versioned struct {
		i       int
		version uint64
	}
	var deltas, reads []versioned
	for i := range samples {
		s := &samples[i]
		o := c.fx.ops[int(s.seq)%len(c.fx.ops)]
		out[i] = quick(o, s)
		if out[i] == vHTTP {
			continue
		}
		switch {
		case o.expect == expectDelta:
			var ack httpapi.DeltaResponse
			if json.Unmarshal(s.body, &ack) != nil || ack.Version == 0 {
				out[i] = vWrong
				continue
			}
			deltas = append(deltas, versioned{i, ack.Version})
		case s.body != nil:
			var head struct {
				ModelVersion uint64 `json:"modelVersion"`
			}
			if json.Unmarshal(s.body, &head) != nil {
				out[i] = vWrong
				continue
			}
			reads = append(reads, versioned{i, head.ModelVersion})
		}
	}
	sort.Slice(deltas, func(a, b int) bool { return deltas[a].version < deltas[b].version })
	sort.SliceStable(reads, func(a, b int) bool { return reads[a].version < reads[b].version })

	shadow, version, next := c.fx.host, uint64(1), 0
	removed := map[[2]string]bool{}
	apply := func(d *graph.Delta) bool {
		if !d.Structural() {
			g, err := shadow.ApplyDelta(d)
			if err != nil {
				return false
			}
			shadow = g
			return true
		}
		if len(d.RemoveNodes)+len(d.AddNodes)+len(d.SetNodeAttrs)+len(d.SetEdgeAttrs) > 0 {
			return false // not a shape the generator emits
		}
		for _, e := range d.RemoveEdges {
			removed[edgeNames(e.Source, e.Target)] = true
		}
		for _, e := range d.AddEdges {
			if !removed[edgeNames(e.Source, e.Target)] {
				return false
			}
			delete(removed, edgeNames(e.Source, e.Target))
		}
		return true
	}
	for _, r := range reads {
		s := &samples[r.i]
		o := c.fx.ops[int(s.seq)%len(c.fx.ops)]
		if c.fx.federated {
			// Shard model versions are per shard and no delta runs.
			out[r.i] = c.full(o, s, c.fx.host, nil)
			c.byHash[s.hash] = out[r.i]
			continue
		}
		for version < r.version && next < len(deltas) && deltas[next].version == version+1 {
			if !apply(c.fx.ops[int(samples[deltas[next].i].seq)%len(c.fx.ops)].delta) {
				break
			}
			version, next = version+1, next+1
		}
		if version != r.version {
			// A delta acknowledgement is missing, so this version of the
			// model cannot be reconstructed and the read goes unverified.
			out[r.i] = vWrong
			continue
		}
		out[r.i] = c.full(o, s, shadow, removed)
		c.byHash[s.hash] = out[r.i]
	}
	// Replies whose exact bytes were verified under another sample.
	for i := range samples {
		s := &samples[i]
		if s.hash != 0 && s.body == nil && out[i] == vOK {
			if v, ok := c.byHash[s.hash]; ok {
				out[i] = v
			}
		}
	}
	return out
}
