package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"netembed/internal/core"
	"netembed/internal/graphml"
	"netembed/internal/service"
)

// registerExtended wires the §VIII extension endpoints:
//
//	POST /negotiate   constraint-relaxation loop (see NegotiateHTTPRequest)
//	POST /schedule    earliest-window scheduling (see ScheduleHTTPRequest)
func (s *Server) registerExtended() {
	s.mux.HandleFunc("POST /negotiate", s.handleNegotiate)
	s.mux.HandleFunc("POST /schedule", s.handleSchedule)
}

// NegotiateHTTPRequest is the JSON body of POST /negotiate.
type NegotiateHTTPRequest struct {
	EmbedRequest
	// Factor scales the window half-width per relaxation round.
	Factor float64 `json:"factor,omitempty"`
	// MaxRounds bounds the relaxation loop.
	MaxRounds int `json:"maxRounds,omitempty"`
}

// NegotiateHTTPResponse is the JSON reply of POST /negotiate.
type NegotiateHTTPResponse struct {
	EmbedResponse
	// Rounds counts relaxations applied (0 = feasible as submitted).
	Rounds int `json:"rounds"`
	// RelaxedQuery is the GraphML of the query actually satisfied.
	RelaxedQuery string `json:"relaxedQuery"`
}

func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	var req NegotiateHTTPRequest
	if !readJSON(w, r, &req) {
		return
	}
	base, err := s.decodeEmbedRequest(&req.EmbedRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var resp *service.NegotiateResponse
	if held := s.eng.Hold(r.Context(), func(stop func() bool) {
		base.Stop = stop
		resp, err = s.svc.Negotiate(service.NegotiateRequest{
			Request:   base,
			Factor:    req.Factor,
			MaxRounds: req.MaxRounds,
		})
	}); held != nil {
		writeEngineError(w, held)
		return
	}
	if err == service.ErrNegotiationFailed {
		writeError(w, http.StatusConflict, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	relaxedML, err := graphml.EncodeString(resp.RelaxedQuery)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := NegotiateHTTPResponse{
		EmbedResponse: embedResponseJSON(&resp.Response),
		Rounds:        resp.Rounds,
		RelaxedQuery:  relaxedML,
	}
	writeJSON(w, http.StatusOK, out)
}

// ScheduleHTTPRequest is the JSON body of POST /schedule.
type ScheduleHTTPRequest struct {
	EmbedRequest
	// DurationMs is how long the embedding holds its resources.
	DurationMs int `json:"durationMs"`
	// HorizonMs bounds the search into the future (default 24h).
	HorizonMs int `json:"horizonMs,omitempty"`
	// StepMs is the window-sliding granularity (default 10min).
	StepMs int `json:"stepMs,omitempty"`
}

// ScheduleHTTPResponse is the JSON reply of POST /schedule.
type ScheduleHTTPResponse struct {
	Start        string            `json:"start"` // RFC 3339
	Mapping      map[string]string `json:"mapping"`
	LeaseID      int64             `json:"leaseId"`
	WindowsTried int               `json:"windowsTried"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleHTTPRequest
	if !readJSON(w, r, &req) {
		return
	}
	base, err := s.decodeEmbedRequest(&req.EmbedRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var resp *service.ScheduleResponse
	held := s.eng.Hold(r.Context(), func(stop func() bool) {
		base.Stop = stop
		resp, err = s.svc.Schedule(service.ScheduleRequest{
			Request:  base,
			Duration: time.Duration(req.DurationMs) * time.Millisecond,
			Horizon:  time.Duration(req.HorizonMs) * time.Millisecond,
			Step:     time.Duration(req.StepMs) * time.Millisecond,
		}, time.Now())
	})
	switch {
	case held != nil:
		writeEngineError(w, held)
		return
	case err == service.ErrNoWindow:
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, service.ErrScheduleBudget):
		// timeoutMs (or the client's departure) ended the scan early: no
		// claim about the windows left.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ScheduleHTTPResponse{
		Start:        resp.Start.Format(time.RFC3339),
		Mapping:      map[string]string(resp.Named),
		LeaseID:      int64(resp.Lease),
		WindowsTried: resp.WindowsTried,
	})
}

// decodeEmbedRequest translates the wire form into a service.Request.
func (s *Server) decodeEmbedRequest(req *EmbedRequest) (service.Request, error) {
	return decodeEmbedRequestCached(s.queries, req)
}

// decodeEmbedRequestCached is decodeEmbedRequest for any handler owning a
// query cache (the per-shard Server and the coordinator's ClusterServer).
func decodeEmbedRequestCached(queries *queryCache, req *EmbedRequest) (service.Request, error) {
	if strings.TrimSpace(req.QueryGraphML) == "" {
		return service.Request{}, fmt.Errorf("missing query GraphML")
	}
	// Decoding dominates warm-request allocations; repeats of the same
	// GraphML text come from the shared LRU. The decoded graph is shared
	// across requests and must never be mutated downstream.
	query, err := queries.decode(req.QueryGraphML)
	if err != nil {
		return service.Request{}, err
	}
	if req.MaxHops < 0 {
		return service.Request{}, fmt.Errorf("maxHops %d is negative", req.MaxHops)
	}
	// Checked here as well as by the service so that /jobs answers 400 at
	// submit instead of failing the job later.
	for name := range req.Allow {
		if _, ok := query.NodeByName(name); !ok {
			return service.Request{}, fmt.Errorf("allow names unknown query node %q", name)
		}
	}
	metrics, err := decodeMetricSpecs(req.Metrics)
	if err != nil {
		return service.Request{}, err
	}
	objective, optimize, err := decodeObjective(req.Objective)
	if err != nil {
		return service.Request{}, err
	}
	return service.Request{
		Query:           query,
		EdgeConstraint:  req.EdgeConstraint,
		NodeConstraint:  req.NodeConstraint,
		Algorithm:       service.Algorithm(req.Algorithm),
		Timeout:         time.Duration(req.TimeoutMs) * time.Millisecond,
		MaxResults:      req.MaxResults,
		Seed:            req.Seed,
		ExcludeReserved: req.ExcludeReserved,
		DedupeSymmetric: req.DedupeSymmetric,
		Consolidate: core.ConsolidateOptions{
			CapacityAttr: req.CapacityAttr,
			DemandAttr:   req.DemandAttr,
		},
		Path: service.PathRequestOptions{
			MaxHops:   req.MaxHops,
			DelayAttr: req.DelayAttr,
			WindowLo:  req.WindowLo,
			WindowHi:  req.WindowHi,
			Metrics:   metrics,
		},
		Objective: objective,
		Optimize:  optimize,
		Allow:     req.Allow,
	}, nil
}

// decodeObjective translates the wire objective, rejecting unknown kinds
// up front so the handler answers 400 instead of the searcher silently
// enumerating. Presence of the objective implies optimization.
func decodeObjective(o *ObjectiveJSON) (core.Objective, bool, error) {
	if o == nil {
		return core.Objective{}, false, nil
	}
	var kind core.ObjectiveKind
	switch o.Kind {
	case "attr-cost":
		kind = core.ObjectiveAttrCost
		if o.Attr == "" {
			// No sensible default exists (unlike load-balance/energy): an
			// empty attr reads 0 on every host, degenerating the search
			// into 'optimizing' a constant — reject like a missing metrics
			// attr instead.
			return core.Objective{}, false, fmt.Errorf("objective: attr-cost requires attr")
		}
	case "load-balance":
		kind = core.ObjectiveLoadBalance
	case "energy":
		kind = core.ObjectiveEnergy
	default:
		return core.Objective{}, false, fmt.Errorf("objective: unknown kind %q (want attr-cost, load-balance or energy)", o.Kind)
	}
	return core.Objective{Kind: kind, Attr: o.Attr, Weight: o.Weight}, true, nil
}

// decodeMetricSpecs translates the wire metric constraints, rejecting
// unknown composition rules and empty attributes up front so the handler
// answers 400 instead of the searcher silently matching nothing.
func decodeMetricSpecs(specs []MetricSpecJSON) ([]core.MetricSpec, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]core.MetricSpec, len(specs))
	for i, s := range specs {
		if s.Attr == "" {
			return nil, fmt.Errorf("metrics[%d]: missing attr", i)
		}
		var rule core.Compose
		switch s.Rule {
		case "additive", "":
			rule = core.Additive
		case "bottleneck":
			rule = core.Bottleneck
		case "multiplicative":
			rule = core.Multiplicative
		default:
			return nil, fmt.Errorf("metrics[%d]: unknown rule %q (want additive, bottleneck or multiplicative)", i, s.Rule)
		}
		out[i] = core.MetricSpec{
			Attr:         s.Attr,
			Rule:         rule,
			LoAttr:       s.LoAttr,
			HiAttr:       s.HiAttr,
			MissingEdge:  s.MissingEdge,
			MissingFails: s.MissingFails,
		}
	}
	return out, nil
}

// embedResponseJSON renders a service response in the wire form.
func embedResponseJSON(resp *service.Response) EmbedResponse {
	out := EmbedResponse{
		Status:        resp.Status.String(),
		Mappings:      make([]map[string]string, len(resp.Named)),
		ModelVersion:  resp.ModelVersion,
		ElapsedMs:     float64(resp.Elapsed) / float64(time.Millisecond),
		Stats:         make(map[string]interface{}, 17), // the counters and timeToFirstMs
		ObjectiveCost: resp.ObjectiveCost,
		Warnings:      resp.Warnings,
	}
	for _, c := range resp.Stats.Counters() {
		out.Stats[c.Name] = c.Value
	}
	out.Stats["timeToFirstMs"] = float64(resp.Stats.TimeToFirst) / float64(time.Millisecond)
	for i, nm := range resp.Named {
		out.Mappings[i] = map[string]string(nm)
	}
	if len(resp.Paths) > 0 {
		out.Paths = make([][]PathWitnessJSON, len(resp.Paths))
		for i, witnesses := range resp.Paths {
			out.Paths[i] = make([]PathWitnessJSON, len(witnesses))
			for j, w := range witnesses {
				out.Paths[i][j] = PathWitnessJSON{Source: w.Source, Target: w.Target, Path: w.Path, Cost: w.Cost}
			}
		}
	}
	return out
}
