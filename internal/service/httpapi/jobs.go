package httpapi

import (
	"net/http"
	"time"

	"netembed/internal/engine"
)

// registerJobs wires the asynchronous job endpoints backed by the engine:
//
//	POST   /jobs        submit an embedding job (JSON body = EmbedRequest)
//	GET    /jobs/{id}   poll a job's lifecycle state and, when done, result
//	DELETE /jobs/{id}   cancel a queued or running job
//	GET    /stats       engine counters (queue, cache, rejections)
func (s *Server) registerJobs() {
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /stats", s.handleStats)
}

// JobStatus is the JSON representation of a job on every /jobs reply.
type JobStatus struct {
	// ID names the job for polling and cancellation.
	ID string `json:"id"`
	// State is one of queued, running, done, failed, canceled.
	State string `json:"state"`
	// Cached is true when the result was served from the engine's
	// model-versioned result cache instead of a fresh search.
	Cached bool `json:"cached,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt are RFC 3339; the latter two
	// are omitted until the job reaches that point.
	SubmittedAt string `json:"submittedAt"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	// Error carries the failure (or cancellation) reason.
	Error string `json:"error,omitempty"`
	// Result is the embedding answer, present once State is done.
	Result *EmbedResponse `json:"result,omitempty"`
	// BestSoFar / BestCost expose a running optimizing job's current
	// incumbent — a feasible embedding and its objective value — so
	// anytime callers can act before the search proves optimality. They
	// appear only while an optimizing job runs (Result supersedes them).
	BestSoFar map[string]string `json:"bestSoFar,omitempty"`
	BestCost  *float64          `json:"bestCost,omitempty"`
}

func jobStatusJSON(info engine.Info) JobStatus {
	out := JobStatus{
		ID:          string(info.ID),
		State:       string(info.State),
		Cached:      info.FromCache,
		SubmittedAt: info.Submitted.Format(time.RFC3339Nano),
	}
	if !info.Started.IsZero() {
		out.StartedAt = info.Started.Format(time.RFC3339Nano)
	}
	if !info.Finished.IsZero() {
		out.FinishedAt = info.Finished.Format(time.RFC3339Nano)
	}
	if info.Err != nil {
		out.Error = info.Err.Error()
	}
	if info.Response != nil {
		r := embedResponseJSON(info.Response)
		r.Cached = info.FromCache
		out.Result = &r
	} else if info.BestSoFar != nil {
		out.BestSoFar = map[string]string(info.BestSoFar)
		cost := info.BestCost
		out.BestCost = &cost
	}
	return out
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req EmbedRequest
	if !readEmbedRequest(w, r, &req) {
		return
	}
	sreq, err := s.decodeEmbedRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.eng.Submit(sreq)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+string(job.ID()))
	writeJSON(w, http.StatusAccepted, jobStatusJSON(job.Info()))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(engine.JobID(r.PathValue("id")))
	if !ok {
		writeError(w, http.StatusNotFound, engine.ErrJobNotFound)
		return
	}
	writeJSON(w, http.StatusOK, jobStatusJSON(job.Info()))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.eng.Cancel(engine.JobID(r.PathValue("id")))
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobStatusJSON(info))
}

// statsJSON is the GET /stats reply: the engine counters (top level, as
// always), the embedding gauges of an attached lifecycle manager (also
// top level; absent without one), then the nested serve-path sections
// (model epochs, runtime memory, query cache).
type statsJSON struct {
	engine.Stats
	*lifecycleStats
	serveStatsJSON
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := statsJSON{Stats: s.eng.Stats(), serveStatsJSON: s.serveSections()}
	if s.lc != nil {
		ls := s.lc.Stats()
		out.lifecycleStats = &ls
	}
	writeJSON(w, http.StatusOK, out)
}
