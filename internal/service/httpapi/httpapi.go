// Package httpapi exposes the NETEMBED service over HTTP/JSON, making the
// mapping service consumable by remote applications the way §III
// envisions. Networks travel as GraphML documents; everything else is
// JSON. Built exclusively on net/http.
//
// Endpoints:
//
//	GET    /healthz          liveness probe
//	GET    /model            current hosting network as GraphML
//	PUT    /model            replace the hosting network (GraphML body),
//	                         published as one delta
//	POST   /deltas           publish an incremental model change (JSON body,
//	                         see DeltaRequest) — the monitor's patch path
//	POST   /embed            run an embedding query (JSON body, see EmbedRequest)
//	POST   /embed/batch      run several queries against one model snapshot
//	                         (JSON body, see BatchEmbedRequest)
//	POST   /jobs             submit an asynchronous embedding job
//	GET    /jobs/{id}        poll a job's status and result
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /stats            job-engine counters
//	POST   /reserve          reserve host nodes (JSON body, see ReserveRequest)
//	DELETE /reserve?id=N     release a lease
//	POST   /negotiate        constraint-relaxation loop (§III negotiation)
//	POST   /schedule         earliest-window scheduling (§VIII extension)
//
// Every search runs in one of the engine's slots (internal/engine), which
// also keeps the bounded FIFO of waiters, cancellation and the
// model-versioned result cache. /embed, /embed/batch (one slot for the
// whole batch), /negotiate, /schedule and POST /embeddings wait and
// search on their handler goroutine and leave no job record; only /jobs
// registers one. Under saturation every one of them answers 429.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
)

// Server adapts a service.Service to HTTP. It implements http.Handler.
type Server struct {
	svc       *service.Service
	eng       *engine.Engine
	ownEngine bool
	mux       *http.ServeMux
	// lc is the embedding-lifecycle manager, mounted via AttachLifecycle
	// (nil when the daemon runs without lifecycle management).
	lc *lifecycle.Manager
	// queries memoizes GraphML query decoding across requests (perf.go).
	queries *queryCache
	// identity is the shard identity this server answers /internal/shard/*
	// with (shard.go); defaults to an anonymous single-shard identity.
	identity *service.LocalShard
}

// New builds the HTTP front end for svc around a private job engine with
// default tuning. The engine starts its goroutines lazily on the first
// embedding request; Close releases them.
func New(svc *service.Service) *Server {
	s := NewWithEngine(svc, engine.New(svc, engine.Config{}))
	s.ownEngine = true
	return s
}

// NewWithEngine builds the HTTP front end over a caller-owned engine
// (the daemon uses this so it can drain the engine during graceful
// shutdown). The engine must wrap the same svc.
func NewWithEngine(svc *service.Service, eng *engine.Engine) *Server {
	s := &Server{svc: svc, eng: eng, mux: http.NewServeMux(), queries: newQueryCache(0)}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/model", s.handleModel)
	s.mux.HandleFunc("POST /embed", s.handleEmbed)
	s.mux.HandleFunc("/reserve", s.handleReserve)
	s.registerJobs()
	s.registerDeltas()
	s.registerExtended()
	s.registerShard()
	return s
}

// Engine exposes the job engine behind the API.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Close drains the server's engine when the server owns it (built via
// New); engines passed to NewWithEngine stay the caller's to close.
func (s *Server) Close(ctx context.Context) error {
	if !s.ownEngine {
		return nil
	}
	return s.eng.Close(ctx)
}

// ServeHTTP dispatches to the API endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// VersionHeader carries the model version on /model responses.
const VersionHeader = "X-Netembed-Model-Version"

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		snap := s.svc.Model().Acquire()
		defer snap.Release()
		w.Header().Set("Content-Type", "application/xml")
		w.Header().Set(VersionHeader, strconv.FormatUint(snap.Version(), 10))
		if err := graphml.Encode(w, snap.Host()); err != nil {
			// Headers are gone; best effort.
			fmt.Fprintf(w, "<!-- encode error: %v -->", err)
		}
	case http.MethodPut:
		var g *graph.Graph
		if !decodeBody(w, r, maxModelBodyBytes, func(body io.Reader) (err error) {
			g, err = graphml.Decode(body)
			return err
		}) {
			return
		}
		// The replacement is one delta computed on the current snapshot:
		// it removes that snapshot's nodes and adds g's. It leaves the
		// model exactly g only when it applied directly on that snapshot.
		// A write landing in between either survives it (a node added
		// meanwhile) or leaves it naming what is gone, so the handler
		// recomputes from the newer snapshot, which removes the strays.
		model := s.svc.Model()
		for {
			snap := model.Acquire()
			base := snap.Version()
			d, err := graph.Replacement(snap.Host(), g)
			snap.Release()
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			want := base
			if !d.Empty() {
				want++
			}
			version, err := model.Apply(d)
			if err != nil && (version == base || !errors.Is(err, graph.ErrUnresolved)) {
				writeError(w, http.StatusConflict, err)
				return
			}
			if err == nil && version == want {
				writeJSON(w, http.StatusOK, map[string]uint64{"version": version})
				return
			}
			if err := r.Context().Err(); err != nil {
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// EmbedRequest is the JSON body of POST /embed.
type EmbedRequest struct {
	// QueryGraphML is the virtual network as a GraphML document.
	QueryGraphML string `json:"query"`
	// EdgeConstraint / NodeConstraint are constraint-language sources.
	EdgeConstraint string `json:"edgeConstraint,omitempty"`
	NodeConstraint string `json:"nodeConstraint,omitempty"`
	// Algorithm is one of ecf, rwb, lns, parallel-ecf, consolidate, path
	// (default ecf). "path" is the §VIII link-to-path extension: query
	// edges ride multi-hop hosting paths under composed metric windows,
	// tuned by the maxHops/delayAttr/windowLo/windowHi/metrics fields;
	// witness paths come back in the response's "paths".
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMs bounds the search in milliseconds.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxResults caps the number of returned embeddings.
	MaxResults int `json:"maxResults,omitempty"`
	// Seed drives the rwb algorithm.
	Seed int64 `json:"seed,omitempty"`
	// ExcludeReserved hides hosts whose every slot a lease that has not
	// ended holds (service.Request.ExcludeReserved).
	ExcludeReserved bool `json:"excludeReserved,omitempty"`
	// DedupeSymmetric collapses embeddings equivalent up to query
	// automorphism.
	DedupeSymmetric bool `json:"dedupeSymmetric,omitempty"`
	// CapacityAttr / DemandAttr rename the attributes the consolidate
	// algorithm packs against (defaults "capacity" / "demand"); ignored
	// by the injective algorithms.
	CapacityAttr string `json:"capacityAttr,omitempty"`
	DemandAttr   string `json:"demandAttr,omitempty"`
	// MaxHops bounds witness path length for the path algorithm (0 = the
	// daemon default; negative values answer 400).
	MaxHops int `json:"maxHops,omitempty"`
	// DelayAttr / WindowLo / WindowHi rename the path algorithm's default
	// single-metric delay window.
	DelayAttr string `json:"delayAttr,omitempty"`
	WindowLo  string `json:"windowLo,omitempty"`
	WindowHi  string `json:"windowHi,omitempty"`
	// Metrics, when non-empty, replaces the delay window with a
	// conjunction of composed-metric constraints for the path algorithm.
	Metrics []MetricSpecJSON `json:"metrics,omitempty"`
	// Objective, when present, switches the search from enumeration to
	// branch-and-bound optimization: the answer is the single cheapest
	// embedding under the objective, with its cost in objectiveCost.
	Objective *ObjectiveJSON `json:"objective,omitempty"`
	// Allow restricts domains: query node name → the hosting node names it
	// may map onto (a node without an entry is unrestricted). Hosting names
	// the model does not know are not allowed; an unknown query node, or a
	// list longer than the model has nodes, answers 400. Honoured by every
	// algorithm on /embed, /embed/batch, /jobs and the shard peer protocol.
	Allow map[string][]string `json:"allow,omitempty"`
}

// ObjectiveJSON is the wire form of an optimization objective.
type ObjectiveJSON struct {
	// Kind is one of attr-cost, load-balance, energy.
	Kind string `json:"kind"`
	// Attr names the hosting-node attribute the objective reads
	// (required for attr-cost; defaults: "slots" for load-balance,
	// "active" for energy).
	Attr string `json:"attr,omitempty"`
	// Weight scales each term (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// MetricSpecJSON is the wire form of one composed-metric constraint for
// path-mode requests.
type MetricSpecJSON struct {
	// Attr is the hosting-edge attribute to compose.
	Attr string `json:"attr"`
	// Rule is one of additive, bottleneck, multiplicative.
	Rule string `json:"rule"`
	// LoAttr / HiAttr name the query-edge attributes bounding the
	// composed value; either may be empty (unbounded on that side).
	LoAttr string `json:"loAttr,omitempty"`
	HiAttr string `json:"hiAttr,omitempty"`
	// MissingEdge substitutes for a hosting edge lacking Attr;
	// MissingFails instead disqualifies paths crossing such an edge.
	MissingEdge  float64 `json:"missingEdge,omitempty"`
	MissingFails bool    `json:"missingFails,omitempty"`
}

// PathWitnessJSON renders one query edge's witness hosting path.
type PathWitnessJSON struct {
	// Source / Target are the query edge's endpoint node names.
	Source string `json:"source"`
	Target string `json:"target"`
	// Path lists the hosting node names the witness crosses, in order.
	Path []string `json:"path"`
	// Cost is the first metric's composed value along the witness.
	Cost float64 `json:"cost"`
}

// EmbedResponse is the JSON reply of POST /embed (and the result payload
// of a finished job).
type EmbedResponse struct {
	Status   string              `json:"status"`
	Mappings []map[string]string `json:"mappings"`
	// Paths holds, for path-algorithm answers, each mapping's witness
	// hosting paths (parallel to Mappings, one per query edge).
	Paths        [][]PathWitnessJSON    `json:"paths,omitempty"`
	ModelVersion uint64                 `json:"modelVersion"`
	ElapsedMs    float64                `json:"elapsedMs"`
	Stats        map[string]interface{} `json:"stats"`
	// Cached is true when the answer came from the engine's result cache
	// (same query fingerprint, same model version) without a new search.
	Cached bool `json:"cached,omitempty"`
	// ObjectiveCost is the objective value of Mappings[0] for optimizing
	// requests; absent otherwise.
	ObjectiveCost *float64 `json:"objectiveCost,omitempty"`
	// Warnings flags suspicious-but-legal requests (unknown attribute
	// names, objectives on algorithms that ignore them).
	Warnings []string `json:"warnings,omitempty"`
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req EmbedRequest
	if !readEmbedRequest(w, r, &req) {
		return
	}
	sreq, err := s.decodeEmbedRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The search runs on this goroutine once the engine admits it (a
	// slot, or a place among the waiters), with the result cache in front;
	// a client disconnect stops it.
	info, err := s.eng.Do(r.Context(), sreq)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeEmbedResponse(w, info.Response, info.FromCache)
}

// writeEngineError answers a request the engine refused, did not run to
// done, or (DELETE /jobs/{id}) could not cancel.
func writeEngineError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, engine.ErrJobNotFound):
		status = http.StatusNotFound
	case errors.Is(err, engine.ErrJobFinished):
		status = http.StatusConflict
	case errors.Is(err, engine.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, engine.ErrShuttingDown),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Refused or failed by the graceful drain, or the client left: a
		// server-side condition, not a client error.
		status = http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrCanceled):
		status = http.StatusConflict // the drain's deadline stopped the search
	}
	writeError(w, status, err)
}

// ReserveRequest is the JSON body of POST /reserve.
type ReserveRequest struct {
	// HostNodes lists hosting node names to reserve.
	HostNodes []string `json:"hostNodes"`
}

func (s *Server) handleReserve(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req ReserveRequest
		if !readJSON(w, r, &req) {
			return
		}
		if len(req.HostNodes) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("no host nodes given"))
			return
		}
		snap := s.svc.Model().Acquire()
		defer snap.Release()
		host := snap.Host()
		ids := make([]graph.NodeID, 0, len(req.HostNodes))
		for _, name := range req.HostNodes {
			id, ok := host.NodeByName(name)
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Errorf("unknown host node %q", name))
				return
			}
			ids = append(ids, id)
		}
		lease, err := s.svc.Ledger().Allocate(ids)
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int64{"leaseId": int64(lease)})
	case http.MethodDelete:
		idStr := r.URL.Query().Get("id")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad lease id %q", idStr))
			return
		}
		if err := s.svc.Ledger().Release(service.LeaseID(id)); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"released": true})
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf := responseBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Nothing was written yet, so the error can still travel as JSON.
		buf.Reset()
		buf.WriteString(`{"error":"response encoding failed"}` + "\n")
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledResponseBuf {
		responseBufPool.Put(buf)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
