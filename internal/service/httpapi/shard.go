// Distributed-tier peer protocol. A federated netembedd exposes its
// shard to the coordinator under /internal/shard/*:
//
//	POST /internal/shard/embed    embed a query fragment against the
//	                              shard's partial view (EmbedRequest)
//	POST /internal/shard/delta    apply the shard's slice of a model
//	                              delta; stale names answer 409
//	GET  /internal/shard/stats    routing summary (service.ShardStats)
//	GET  /internal/shard/nodes    hosting-node names + model version —
//	                              the coordinator's routing-table feed
//	GET  /internal/shard/version  current model snapshot version
//
// RemoteShard is the matching client: it implements service.Shard over
// these endpoints with per-peer timeouts and retry-with-backoff, so a
// Coordinator can federate real processes. ClusterServer fronts a
// Coordinator with the operator-facing API (/embed, /deltas, /cluster).
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
)

// registerShard wires the peer endpoints. Embed and delta reuse the
// public handlers (same wire forms, same engine-backed execution and 409
// semantics); the read-side endpoints answer from the shard identity.
func (s *Server) registerShard() {
	s.mux.HandleFunc("POST /internal/shard/embed", s.handleEmbed)
	s.mux.HandleFunc("POST /internal/shard/delta", s.handleDeltas)
	s.mux.HandleFunc("GET /internal/shard/stats", s.handleShardStats)
	s.mux.HandleFunc("GET /internal/shard/nodes", s.handleShardNodes)
	s.mux.HandleFunc("GET /internal/shard/version", s.handleShardVersion)
}

// ConfigureShard sets the identity this server reports to coordinators
// (netembedd's -shard-name/-shard-region flags). Without it the server
// still answers the peer protocol under an empty name.
func (s *Server) ConfigureShard(name string, regions []string) {
	s.identity = service.NewLocalShard(name, regions, s.svc)
}

func (s *Server) shardIdentity() *service.LocalShard {
	if s.identity == nil {
		s.identity = service.NewLocalShard("", nil, s.svc)
	}
	return s.identity
}

func (s *Server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.shardIdentity().Stats()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// ShardNodesResponse is the JSON reply of GET /internal/shard/nodes.
type ShardNodesResponse struct {
	Names   []string `json:"names"`
	Version uint64   `json:"version"`
}

func (s *Server) handleShardNodes(w http.ResponseWriter, r *http.Request) {
	names, version, err := s.shardIdentity().NodeNames()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, ShardNodesResponse{Names: names, Version: version})
}

func (s *Server) handleShardVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]uint64{"version": s.svc.Model().Version()})
}

// RemoteShardConfig tunes one peer client.
type RemoteShardConfig struct {
	// Name overrides the shard name (default: the peer's host:port).
	Name string
	// Timeout is the slack an exchange gets beyond the embed budget, or
	// the whole bound of a call without one: every attempt and backoff
	// sleep of the exchange fits in it (default 10s).
	Timeout time.Duration
	// Retries is how many times an idempotent request is retried after a
	// transport failure (default 2).
	Retries int
	// Backoff is the first retry's delay, doubled per attempt
	// (default 100ms).
	Backoff time.Duration
	// Client overrides the HTTP client (tests inject httptest here).
	Client *http.Client
}

// RemoteShard implements service.Shard over the /internal/shard/* peer
// protocol of another netembedd process.
type RemoteShard struct {
	base    string
	name    string
	client  *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration

	mu        sync.Mutex
	regions   []string
	nodeCount int
}

// NewRemoteShard builds the client for one peer. The peer is not
// contacted here: an unreachable peer boots unhealthy in the coordinator
// and joins on the first successful refresh.
func NewRemoteShard(baseURL string, cfg RemoteShardConfig) (*RemoteShard, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("httpapi: bad peer URL %q", baseURL)
	}
	if cfg.Name == "" {
		cfg.Name = u.Host
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &RemoteShard{
		base:    strings.TrimSuffix(u.String(), "/"),
		name:    cfg.Name,
		client:  client,
		timeout: cfg.Timeout,
		retries: cfg.Retries,
		backoff: cfg.Backoff,
	}, nil
}

// Name implements service.Shard.
func (rs *RemoteShard) Name() string { return rs.name }

// Regions implements service.Shard (last fetched; empty before the first
// successful Stats).
func (rs *RemoteShard) Regions() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.regions...)
}

// NodeCount implements service.Shard (last fetched).
func (rs *RemoteShard) NodeCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.nodeCount
}

// maxShardReplyBytes bounds the reply a peer may send to one exchange,
// error bodies included. The tier's replies are kilobytes (a page of
// fragment embeddings, a region's node names); the bound keeps a broken
// peer from filling the coordinator's memory.
const maxShardReplyBytes = 64 << 20

// requestBody is the body of one exchange with a peer, in a pooled buffer
// every attempt reads through its own reader. The transport may still be
// writing a body after client.Do returns, and closes it when done, so the
// buffer goes back to the pool only once the exchange (release) and every
// reader it handed out (Close) are through with it.
type requestBody struct {
	cb   *codecBuf
	refs atomic.Int32
}

func newRequestBody(cb *codecBuf) *requestBody {
	rb := &requestBody{cb: cb}
	rb.refs.Store(1)
	return rb
}

// open returns a new reader over the body; the transport closes it.
func (rb *requestBody) open() io.ReadCloser {
	rb.refs.Add(1)
	r := &bodyReader{rb: rb}
	r.Reset(rb.cb.b)
	return r
}

func (rb *requestBody) release() {
	if rb.refs.Add(-1) == 0 {
		putCodecBuf(rb.cb)
	}
}

type bodyReader struct {
	bytes.Reader
	rb     *requestBody
	closed atomic.Bool
}

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.rb.release()
	}
	return nil
}

// do runs one HTTP exchange with the peer and returns the 200 reply's
// body in a pooled buffer; body, when not nil, is released when do
// returns. One deadline, timeout from the call, bounds every attempt and
// every backoff sleep. Transport failures are retried with exponential
// backoff when retry is true (idempotent calls), unless the deadline
// ended the attempt or would end the sleep; HTTP error statuses and
// replies over maxShardReplyBytes are never retried — the peer answered.
func (rs *RemoteShard) do(method, path string, body *requestBody, timeout time.Duration, retry bool) (*codecBuf, error) {
	if body != nil {
		defer body.release()
	}
	if timeout <= 0 {
		timeout = rs.timeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	deadline, _ := ctx.Deadline()
	attempts := 1
	if retry {
		attempts += rs.retries
	}
	var lastErr error
	backoff := rs.backoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if ctx.Err() != nil || time.Until(deadline) <= backoff {
				break // the deadline ended the last attempt, or would end the sleep
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(ctx, method, rs.base+path, nil)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Body = body.open()
			req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
			req.ContentLength = int64(len(body.cb.b))
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := rs.client.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("httpapi: peer %s: %w", rs.name, err)
			continue
		}
		cb, err := readReply(resp.Body, resp.ContentLength)
		resp.Body.Close()
		if errors.Is(err, errReplyTooLong) {
			return nil, fmt.Errorf("httpapi: peer %s answered %d: %w", rs.name, resp.StatusCode, err)
		}
		if err != nil {
			lastErr = fmt.Errorf("httpapi: peer %s: %w", rs.name, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(cb.b, &e)
			if e.Error == "" {
				e.Error = strings.TrimSpace(string(cb.b))
			}
			putCodecBuf(cb)
			if resp.StatusCode == http.StatusConflict {
				// The peer resolved our names against a newer model: the
				// coordinator's routing table is stale.
				return nil, fmt.Errorf("%w: peer %s: %s", service.ErrStaleRouting, rs.name, e.Error)
			}
			return nil, fmt.Errorf("httpapi: peer %s answered %d: %s", rs.name, resp.StatusCode, e.Error)
		}
		return cb, nil
	}
	return nil, lastErr
}

var errReplyTooLong = fmt.Errorf("reply over the %d-byte bound", maxShardReplyBytes)

// readReply reads a peer's reply, at most maxShardReplyBytes of it, into a
// pooled buffer; a longer one fails with errReplyTooLong, at once when its
// Content-Length announces it.
func readReply(body io.Reader, announced int64) (*codecBuf, error) {
	if announced > maxShardReplyBytes {
		return nil, errReplyTooLong
	}
	cb := getCodecBuf()
	b := cb.b[:0]
	if n := int(min(announced, maxPooledResponseBuf)); n >= cap(b) {
		b = make([]byte, 0, n+bytes.MinRead)
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(max(cap(b), bytes.MinRead), maxShardReplyBytes+1-len(b)))
		}
		n, err := body.Read(b[len(b):min(cap(b), maxShardReplyBytes+1)])
		b = b[:len(b)+n]
		if len(b) > maxShardReplyBytes {
			err = errReplyTooLong
		} else if err == io.EOF {
			cb.b = b
			return cb, nil
		}
		if err != nil {
			cb.b = b
			putCodecBuf(cb)
			return nil, err
		}
	}
}

// call runs one exchange whose reply is decoded with encoding/json: the
// peer protocol's rare calls.
func (rs *RemoteShard) call(method, path string, body []byte, retry bool, out any) error {
	var rb *requestBody
	if body != nil {
		cb := getCodecBuf()
		cb.b = append(cb.b[:0], body...)
		rb = newRequestBody(cb)
	}
	cb, err := rs.do(method, path, rb, 0, retry)
	if err != nil {
		return err
	}
	defer putCodecBuf(cb)
	if err := json.Unmarshal(cb.b, out); err != nil {
		return fmt.Errorf("httpapi: peer %s: bad response JSON: %v", rs.name, err)
	}
	return nil
}

// Stats implements service.Shard.
func (rs *RemoteShard) Stats() (service.ShardStats, error) {
	var st service.ShardStats
	if err := rs.call(http.MethodGet, "/internal/shard/stats", nil, true, &st); err != nil {
		return service.ShardStats{}, err
	}
	rs.mu.Lock()
	rs.regions = append([]string(nil), st.Regions...)
	rs.nodeCount = st.NodeCount
	rs.mu.Unlock()
	return st, nil
}

// NodeNames implements service.Shard.
func (rs *RemoteShard) NodeNames() ([]string, uint64, error) {
	var out ShardNodesResponse
	if err := rs.call(http.MethodGet, "/internal/shard/nodes", nil, true, &out); err != nil {
		return nil, 0, err
	}
	rs.mu.Lock()
	rs.nodeCount = len(out.Names)
	rs.mu.Unlock()
	return out.Names, out.Version, nil
}

// Embed implements service.Shard: the request travels as the public
// /embed wire form (query re-encoded to GraphML), written and read by the
// embed codec, and the named mappings come back; raw index mappings do not
// cross processes.
func (rs *RemoteShard) Embed(req service.Request) (*service.Response, error) {
	wire, err := encodeEmbedRequest(req)
	if err != nil {
		return nil, err
	}
	cb := getCodecBuf()
	if cb.b, err = appendEmbedRequest(cb.b[:0], wire, &cb.keys); err != nil {
		putCodecBuf(cb)
		return nil, err
	}
	// The HTTP deadline wraps the peer's search budget with slack for
	// transport and queueing.
	timeout := req.Timeout + rs.timeout
	reply, err := rs.do(http.MethodPost, "/internal/shard/embed", newRequestBody(cb), timeout, true)
	if err != nil {
		return nil, err
	}
	defer putCodecBuf(reply)
	resp, err := decodeEmbedResponse(reply.b, &reply.tmp)
	if err != nil {
		return nil, fmt.Errorf("httpapi: peer %s: %w", rs.name, err)
	}
	return resp, nil
}

// ApplyDelta implements service.Shard. Deltas are not idempotent, so
// transport failures are not retried; a 409 surfaces as ErrStaleRouting.
func (rs *RemoteShard) ApplyDelta(d *graph.Delta) (uint64, error) {
	body, err := json.Marshal(encodeDelta(d))
	if err != nil {
		return 0, err
	}
	var out DeltaResponse
	if err := rs.call(http.MethodPost, "/internal/shard/delta", body, false, &out); err != nil {
		return 0, err
	}
	return out.Version, nil
}

// encodeEmbedRequest renders a service.Request in the /embed wire form.
func encodeEmbedRequest(req service.Request) (*EmbedRequest, error) {
	if req.Query == nil {
		return nil, service.ErrNoQuery
	}
	queryML, err := graphml.EncodeString(req.Query)
	if err != nil {
		return nil, err
	}
	wire := &EmbedRequest{
		QueryGraphML:    queryML,
		EdgeConstraint:  req.EdgeConstraint,
		NodeConstraint:  req.NodeConstraint,
		Algorithm:       string(req.Algorithm),
		TimeoutMs:       int(req.Timeout / time.Millisecond),
		MaxResults:      req.MaxResults,
		Seed:            req.Seed,
		ExcludeReserved: req.ExcludeReserved,
		DedupeSymmetric: req.DedupeSymmetric,
		CapacityAttr:    req.Consolidate.CapacityAttr,
		DemandAttr:      req.Consolidate.DemandAttr,
		MaxHops:         req.Path.MaxHops,
		DelayAttr:       req.Path.DelayAttr,
		WindowLo:        req.Path.WindowLo,
		WindowHi:        req.Path.WindowHi,
		Allow:           req.Allow,
	}
	for _, m := range req.Path.Metrics {
		rule := "additive"
		switch m.Rule {
		case core.Bottleneck:
			rule = "bottleneck"
		case core.Multiplicative:
			rule = "multiplicative"
		}
		wire.Metrics = append(wire.Metrics, MetricSpecJSON{
			Attr: m.Attr, Rule: rule, LoAttr: m.LoAttr, HiAttr: m.HiAttr,
			MissingEdge: m.MissingEdge, MissingFails: m.MissingFails,
		})
	}
	if req.Optimize {
		kind := ""
		switch req.Objective.Kind {
		case core.ObjectiveAttrCost:
			kind = "attr-cost"
		case core.ObjectiveLoadBalance:
			kind = "load-balance"
		case core.ObjectiveEnergy:
			kind = "energy"
		}
		wire.Objective = &ObjectiveJSON{Kind: kind, Attr: req.Objective.Attr, Weight: req.Objective.Weight}
	}
	return wire, nil
}

// responseFromWire translates the wire reply back into a
// service.Response: with json.Unmarshal, the reference decodeEmbedResponse
// is tested against. Raw index mappings are process-local and stay empty;
// the named mappings are the authoritative cross-process answer.
func responseFromWire(out *EmbedResponse) (*service.Response, error) {
	resp := &service.Response{
		ModelVersion: out.ModelVersion,
		Elapsed:      time.Duration(out.ElapsedMs * float64(time.Millisecond)),
		Warnings:     out.Warnings,
	}
	switch out.Status {
	case "complete":
		resp.Status = core.StatusComplete
	case "partial":
		resp.Status = core.StatusPartial
	case "inconclusive":
		resp.Status = core.StatusInconclusive
	default:
		return nil, fmt.Errorf("unknown status %q in peer response", out.Status)
	}
	for _, m := range out.Mappings {
		resp.Named = append(resp.Named, service.NamedMapping(m))
	}
	for _, ws := range out.Paths {
		row := make([]service.PathWitness, len(ws))
		for i, w := range ws {
			row[i] = service.PathWitness{Source: w.Source, Target: w.Target, Path: w.Path, Cost: w.Cost}
		}
		resp.Paths = append(resp.Paths, row)
	}
	resp.ObjectiveCost = out.ObjectiveCost
	resp.Stats = statsFromJSON(out.Stats)
	return resp, nil
}

// statsFromJSON recovers the search counters from the wire stats map.
func statsFromJSON(m map[string]interface{}) core.Stats {
	var st core.Stats
	for name, v := range m {
		if f, ok := v.(float64); ok {
			st.SetCounter(name, int64(f))
		}
	}
	if ms, ok := m["timeToFirstMs"].(float64); ok {
		st.TimeToFirst = time.Duration(ms * float64(time.Millisecond))
	}
	return st
}

// encodeDelta renders a graph.Delta in the /deltas wire form.
func encodeDelta(d *graph.Delta) *DeltaRequest {
	req := &DeltaRequest{RemoveNodes: d.RemoveNodes}
	for _, ref := range d.RemoveEdges {
		req.RemoveEdges = append(req.RemoveEdges, DeltaEdgeRef{Source: ref.Source, Target: ref.Target})
	}
	for _, n := range d.AddNodes {
		req.AddNodes = append(req.AddNodes, DeltaNode{Name: n.Name, Attrs: attrsJSON(n.Attrs, nil)})
	}
	for _, e := range d.AddEdges {
		req.AddEdges = append(req.AddEdges, DeltaEdge{Source: e.Source, Target: e.Target, Attrs: attrsJSON(e.Attrs, nil)})
	}
	for _, up := range d.SetNodeAttrs {
		req.SetNodeAttrs = append(req.SetNodeAttrs, DeltaNodeAttrs{Node: up.Node, Attrs: attrsJSON(up.Set, up.Unset)})
	}
	for _, up := range d.SetEdgeAttrs {
		req.SetEdgeAttrs = append(req.SetEdgeAttrs, DeltaEdgeAttrs{Source: up.Source, Target: up.Target, Attrs: attrsJSON(up.Set, up.Unset)})
	}
	return req
}

// attrsJSON renders a typed attribute bag (plus explicit removals) as the
// wire's JSON attribute map.
func attrsJSON(set graph.Attrs, unset []string) map[string]any {
	if len(set) == 0 && len(unset) == 0 {
		return nil
	}
	out := make(map[string]any, len(set)+len(unset))
	for name, v := range set {
		if f, ok := v.Float(); ok {
			out[name] = f
		} else if s, ok := v.Text(); ok {
			out[name] = s
		} else if b, ok := v.Truth(); ok {
			out[name] = b
		}
	}
	for _, name := range unset {
		out[name] = nil
	}
	return out
}

// ClusterServer fronts a service.Coordinator with HTTP: the operator API
// of a federated netembedd.
//
//	GET  /healthz   liveness probe
//	POST /embed     route an embedding query through the tier; the
//	                X-Netembed-Answered-By header names the answering
//	                shard (or cross:a+b for stitched answers)
//	POST /deltas    split and propagate a model delta to the owning
//	                shards; stale names answer 409 after a refresh
//	GET  /cluster   shard health, versions, routing-table summary
type ClusterServer struct {
	coord   *service.Coordinator
	mux     *http.ServeMux
	queries *queryCache
}

// AnsweredByHeader names the shard that answered a coordinator /embed.
const AnsweredByHeader = "X-Netembed-Answered-By"

// NewClusterServer builds the operator front end for a coordinator.
func NewClusterServer(coord *service.Coordinator) *ClusterServer {
	s := &ClusterServer{coord: coord, mux: http.NewServeMux(), queries: newQueryCache(0)}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	s.mux.HandleFunc("POST /embed", s.handleEmbed)
	s.mux.HandleFunc("POST /deltas", s.handleDeltas)
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	return s
}

// ServeHTTP implements http.Handler.
func (s *ClusterServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *ClusterServer) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req EmbedRequest
	if !readEmbedRequest(w, r, &req) {
		return
	}
	sreq, err := decodeEmbedRequestCached(s.queries, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sreq.Stop = func() bool { return r.Context().Err() != nil } // the client has gone
	resp, where, err := s.coord.Embed(sreq)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set(AnsweredByHeader, where)
	writeEmbedResponse(w, resp, false)
}

// ClusterDeltaResponse is the JSON reply of the coordinator's /deltas:
// the model version each owning shard reported for its slice.
type ClusterDeltaResponse struct {
	Versions map[string]uint64 `json:"versions"`
}

func (s *ClusterServer) handleDeltas(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !readJSON(w, r, &req) {
		return
	}
	d, err := decodeDelta(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	versions, err := s.coord.ApplyDelta(d)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, service.ErrStaleRouting) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, ClusterDeltaResponse{Versions: versions})
}

func (s *ClusterServer) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Cluster())
}
