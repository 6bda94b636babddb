package service

import (
	"math/rand"

	"netembed/internal/coords"
	"netembed/internal/graph"
)

// CompletionConfig drives coordinate-based completion of a partially
// measured hosting network (the open-network case of §II: no monitor of
// the Internet or a PlanetLab overlay ever sees an all-pairs delay
// characterization).
type CompletionConfig struct {
	// Embed tunes the Vivaldi deployment simulated over the measured
	// edges of the current model snapshot.
	Embed coords.EmbedConfig
	// Densify tunes how predictions become delay windows on synthesized
	// edges.
	Densify coords.DensifyConfig
	// Seed drives the gossip sampling (default 1).
	Seed int64
}

// CompletionReport describes the outcome of one model completion.
type CompletionReport struct {
	Added   int               // synthesized edges installed
	Fit     coords.ErrorStats // coordinate fit over the measured edges
	Version uint64            // model version carrying the completed graph
}

// Complete embeds the model's current snapshot into a Vivaldi coordinate
// space, synthesizes an edge for every unmeasured node pair with the
// coordinate-predicted delay window, and publishes those edges as one
// delta. Synthesized edges carry the Densify mark attribute ("predicted"
// by default) so constraint expressions can exclude them — e.g.
// "!has(rEdge.predicted)" restricts a query to measured links.
//
// The edges are computed on a densified clone of a pinned snapshot,
// outside any model lock, and added by Apply: attribute drift a monitor
// publishes meanwhile composes with them. Only when the delta no longer
// applies — a node it names is gone, or an edge it adds now exists — is
// the completion redone against a fresh snapshot. Nothing partial is
// ever published.
func Complete(m *Model, cfg CompletionConfig) (CompletionReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	for {
		snap := m.Acquire()
		d, rep, err := completion(snap.Host(), cfg)
		snap.Release()
		if err != nil {
			return CompletionReport{}, err
		}
		if rep.Version, err = m.Apply(d); err == nil {
			return rep, nil
		}
	}
}

// completion fits coordinates over g's measured edges and returns the
// delta adding the edges Densify synthesizes on a clone of g.
func completion(g *graph.Graph, cfg CompletionConfig) (*graph.Delta, CompletionReport, error) {
	sys, _, err := coords.Embed(g, cfg.Embed, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, CompletionReport{}, err
	}
	rep := CompletionReport{Fit: coords.Errors(sys, g, cfg.Embed.Attr)}
	next := g.Clone()
	if rep.Added, err = coords.Densify(next, sys, cfg.Densify); err != nil {
		return nil, CompletionReport{}, err
	}
	d := &graph.Delta{AddEdges: make([]graph.EdgeSpec, 0, rep.Added)}
	for id := g.NumEdges(); id < next.NumEdges(); id++ {
		e := next.Edge(graph.EdgeID(id))
		d.AddEdges = append(d.AddEdges, graph.EdgeSpec{Source: next.Node(e.From).Name, Target: next.Node(e.To).Name, Attrs: e.Attrs})
	}
	return d, rep, nil
}
