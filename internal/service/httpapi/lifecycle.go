package httpapi

import (
	"errors"
	"net/http"
	"time"

	"netembed/internal/lifecycle"
	"netembed/internal/service"
)

// AttachLifecycle mounts the embedding-lifecycle endpoints over mgr:
//
//	POST   /embeddings              place and adopt a managed embedding
//	                                (JSON body = PlaceEmbeddingRequest)
//	GET    /embeddings              list all managed embeddings with health
//	GET    /embeddings/{id}         one embedding's health snapshot
//	POST   /embeddings/{id}/migrate force a verify + repair round now
//	DELETE /embeddings/{id}         release the embedding and its lease
//
// Attaching also upgrades GET /stats: the lifecycle counters join the
// engine's at its top level. Call before serving; the mux is not safe
// for concurrent registration.
func (s *Server) AttachLifecycle(mgr *lifecycle.Manager) {
	s.lc = mgr
	s.mux.HandleFunc("POST /embeddings", s.handleEmbeddingPlace)
	s.mux.HandleFunc("GET /embeddings", s.handleEmbeddingList)
	s.mux.HandleFunc("GET /embeddings/{id}", s.handleEmbeddingGet)
	s.mux.HandleFunc("POST /embeddings/{id}/migrate", s.handleEmbeddingMigrate)
	s.mux.HandleFunc("DELETE /embeddings/{id}", s.handleEmbeddingRelease)
}

// Lifecycle exposes the attached manager (nil before AttachLifecycle).
func (s *Server) Lifecycle() *lifecycle.Manager { return s.lc }

// PlaceEmbeddingRequest is the JSON body of POST /embeddings: an
// embedding query plus the lease TTL.
type PlaceEmbeddingRequest struct {
	EmbedRequest
	// TTLMs windows the lease to [now, now+TTL) milliseconds; 0 holds
	// until released.
	TTLMs int64 `json:"ttlMs,omitempty"`
}

// lifecycleStats names lifecycle.Stats apart from the embedded
// engine.Stats.
type lifecycleStats = lifecycle.Stats

func (s *Server) handleEmbeddingPlace(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		writeError(w, http.StatusNotFound, errors.New("lifecycle not enabled"))
		return
	}
	var req PlaceEmbeddingRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.TTLMs < 0 {
		writeError(w, http.StatusBadRequest, errors.New("ttlMs is negative"))
		return
	}
	sreq, err := s.decodeEmbedRequest(&req.EmbedRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var info lifecycle.Info
	held := s.eng.Hold(r.Context(), func(stop func() bool) {
		sreq.Stop = stop
		info, err = s.lc.Place(lifecycle.PlaceRequest{
			Request: sreq,
			TTL:     time.Duration(req.TTLMs) * time.Millisecond,
		})
	})
	switch {
	case held != nil:
		writeEngineError(w, held)
		return
	case errors.Is(err, lifecycle.ErrNoPlacement):
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	case errors.Is(err, lifecycle.ErrConsolidate),
		errors.Is(err, lifecycle.ErrAllowSet),
		errors.Is(err, service.ErrNoQuery),
		errors.Is(err, service.ErrBadPathOptions),
		errors.Is(err, service.ErrBadConstraint),
		errors.Is(err, service.ErrUnknownAlgorithm):
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleEmbeddingList(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		writeError(w, http.StatusNotFound, errors.New("lifecycle not enabled"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"embeddings": s.lc.List(),
		"stats":      s.lc.Stats(),
	})
}

func (s *Server) handleEmbeddingGet(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		writeError(w, http.StatusNotFound, errors.New("lifecycle not enabled"))
		return
	}
	info, ok := s.lc.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, lifecycle.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEmbeddingMigrate(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		writeError(w, http.StatusNotFound, errors.New("lifecycle not enabled"))
		return
	}
	info, err := s.lc.Migrate(r.PathValue("id"))
	switch {
	case errors.Is(err, lifecycle.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, lifecycle.ErrExpired):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEmbeddingRelease(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		writeError(w, http.StatusNotFound, errors.New("lifecycle not enabled"))
		return
	}
	if err := s.lc.Release(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"released": true})
}
