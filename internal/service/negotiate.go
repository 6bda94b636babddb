package service

import (
	"errors"
	"time"

	"netembed/internal/graph"
)

// NegotiateRequest drives the interactive adjustment loop of §III: "an
// interactive service would facilitate the adjustment (negotiation) of
// the requirements if the query cannot be satisfied". Starting from the
// caller's (possibly over-constrained) query, each round widens the delay
// windows on every query edge by Factor and retries, until an embedding
// appears or MaxRounds is exhausted.
type NegotiateRequest struct {
	Request
	// LoAttr/HiAttr name the window attributes to relax (defaults
	// "minDelay"/"maxDelay").
	LoAttr, HiAttr string
	// Factor scales the window half-width per round (default 1.5): the
	// window [lo, hi] becomes [mid - f·w/2, hi' = mid + f·w/2], clamped
	// below at zero.
	Factor float64
	// MaxRounds bounds the relaxation (default 5).
	MaxRounds int
}

// NegotiateResponse reports the embedding and how much relaxation it
// took.
type NegotiateResponse struct {
	Response
	// Rounds counts relaxations applied: 0 means the original query was
	// feasible as submitted.
	Rounds int
	// RelaxedQuery is the query actually satisfied (the caller's own
	// query is never mutated).
	RelaxedQuery *graph.Graph
}

// ErrNegotiationFailed is returned when no relaxation level within
// MaxRounds admits an embedding.
var ErrNegotiationFailed = errors.New("service: query infeasible even after relaxation")

// Negotiate runs the §III negotiation loop. The per-round search reuses
// the request's algorithm and splits its timeout across rounds. Every
// round reads the one snapshot acquired at the start, so the relaxation
// that finally fits answers against the same network the first round
// was refused on.
func (s *Service) Negotiate(req NegotiateRequest) (*NegotiateResponse, error) {
	if req.Query == nil {
		return nil, ErrNoQuery
	}
	if req.LoAttr == "" {
		req.LoAttr = "minDelay"
	}
	if req.HiAttr == "" {
		req.HiAttr = "maxDelay"
	}
	if req.Factor == 0 {
		req.Factor = 1.5
	}
	if req.MaxRounds == 0 {
		req.MaxRounds = 5
	}
	if req.MaxResults == 0 {
		req.MaxResults = 1
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.defaultTimeout
	}
	perRound := timeout / time.Duration(req.MaxRounds+1)
	if perRound <= 0 {
		perRound = time.Millisecond
	}

	snap := s.model.Acquire()
	defer snap.Release()
	current := req.Query
	for round := 0; round <= req.MaxRounds; round++ {
		r := req.Request
		r.Query = current
		r.Timeout = perRound
		resp, err := s.EmbedOn(snap, r)
		if err != nil {
			return nil, err
		}
		if len(resp.Mappings) > 0 {
			return &NegotiateResponse{
				Response:     *resp,
				Rounds:       round,
				RelaxedQuery: current,
			}, nil
		}
		if round == req.MaxRounds {
			break
		}
		current = relaxWindows(current, req.LoAttr, req.HiAttr, req.Factor)
	}
	return nil, ErrNegotiationFailed
}

// relaxWindows clones q and widens every [lo, hi] window around its
// midpoint by factor, clamping the low end at zero.
func relaxWindows(q *graph.Graph, loAttr, hiAttr string, factor float64) *graph.Graph {
	out := q.Clone()
	for i := 0; i < out.NumEdges(); i++ {
		attrs := out.Edge(graph.EdgeID(i)).Attrs
		lo, okLo := attrs.Float(loAttr)
		hi, okHi := attrs.Float(hiAttr)
		if !okLo || !okHi || hi < lo {
			continue
		}
		mid := (lo + hi) / 2
		half := (hi - lo) / 2 * factor
		if half == 0 {
			half = mid * (factor - 1) // degenerate point window: open it up
		}
		newLo := mid - half
		if newLo < 0 {
			newLo = 0
		}
		attrs.SetNum(loAttr, newLo)
		attrs.SetNum(hiAttr, mid+half)
	}
	return out
}
