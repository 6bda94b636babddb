package service

import (
	"errors"
	"fmt"
	"time"

	"netembed/internal/core"
)

// ScheduleRequest asks for the earliest time window in which an embedding
// becomes feasible — the §VIII "integrated mapping and scheduling"
// extension: resources already leased to other embeddings are unavailable
// within their windows, so the scheduler slides a candidate window across
// the horizon until the query fits.
type ScheduleRequest struct {
	Request
	// Duration is how long the embedding will hold its resources.
	Duration time.Duration
	// Horizon bounds how far into the future to search (default 24h).
	Horizon time.Duration
	// Step is the window-sliding granularity (default 10m).
	Step time.Duration
}

// ScheduleResponse reports the first feasible window.
type ScheduleResponse struct {
	// Start is when the embedding can begin.
	Start time.Time
	// Mapping is a feasible embedding during [Start, Start+Duration).
	Mapping core.Mapping
	Named   NamedMapping
	// Lease is the reservation taken out for the window.
	Lease LeaseID
	// WindowsTried counts how many candidate windows were examined.
	WindowsTried int
}

// ErrNoWindow is returned when no feasible window exists in the horizon.
var ErrNoWindow = errors.New("service: no feasible window within the horizon")

// ErrScheduleBudget is returned when the request's time budget (or its
// Stop hook) ended the scan before every window of the horizon was
// searched: nothing is known about the windows left.
var ErrScheduleBudget = errors.New("service: time budget ran out before the horizon was searched")

// Schedule finds the earliest window of the requested duration in which
// the query can be embedded given existing leases, reserves it, and
// returns the mapping plus lease. The request's constraints and
// algorithm are honored (consolidate and path are refused with
// ErrUnsupportedAlgorithm); ExcludeReserved is implied (that is the
// point). req.Timeout bounds the whole scan, not each window.
func (s *Service) Schedule(req ScheduleRequest, now time.Time) (*ScheduleResponse, error) {
	if req.Query == nil {
		return nil, ErrNoQuery
	}
	if req.Duration <= 0 {
		return nil, errors.New("service: schedule needs a positive duration")
	}
	if req.Algorithm == AlgoConsolidate || req.Algorithm == AlgoPathEmbed {
		return nil, fmt.Errorf("%w: schedule cannot run %q", ErrUnsupportedAlgorithm, req.Algorithm)
	}
	if req.Horizon == 0 {
		req.Horizon = 24 * time.Hour
	}
	if req.Step == 0 {
		req.Step = 10 * time.Minute
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.defaultTimeout
	}
	deadline := time.Now().Add(timeout)

	edgeProg, nodeProg, err := CompilePrograms(req.EdgeConstraint, req.NodeConstraint)
	if err != nil {
		return nil, err
	}

	host, idx, version := s.model.AcquireIndexed() // a live reader for the whole scan
	defer s.model.Release(version)
	allow, err := resolveAllow(req.Query, host, req.Allow)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(req.Query, host, edgeProg, nodeProg)
	if err != nil {
		return nil, err
	}
	tried := 0
	for offset := time.Duration(0); offset <= req.Horizon; offset += req.Step {
		start := now.Add(offset)
		end := start.Add(req.Duration)
		tried++

		// Only hosts AllocateWindow would accept for this window are searched.
		p.Allow = narrow(allow, req.Query.NumNodes(), s.ledger.FreeInWindow(host.NumNodes(), start, end))
		opt := core.Options{Timeout: time.Until(deadline), MaxSolutions: 1, Seed: req.Seed, Stop: req.Stop, Index: idx}
		if opt.Timeout <= 0 {
			return nil, fmt.Errorf("%w (%d windows searched)", ErrScheduleBudget, tried-1)
		}
		res, err := search(p, opt, req.Request)
		if err != nil {
			return nil, err
		}
		if len(res.Solutions) == 0 {
			if res.Status != core.StatusComplete {
				return nil, fmt.Errorf("%w (%d windows searched)", ErrScheduleBudget, tried-1)
			}
			continue
		}
		m := res.Solutions[0]
		lease, err := s.ledger.AllocateWindow(m, start, end)
		if err != nil {
			// Raced with a concurrent allocation: try the next window.
			continue
		}
		return &ScheduleResponse{
			Start:        start,
			Mapping:      m,
			Named:        nameMapping(req.Query, host, m),
			Lease:        lease,
			WindowsTried: tried,
		}, nil
	}
	return nil, ErrNoWindow
}
