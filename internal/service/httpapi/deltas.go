package httpapi

import (
	"fmt"
	"net/http"

	"netembed/internal/graph"
	"netembed/internal/service"
)

// registerDeltas wires the delta-native model update path and the batch
// embedding endpoint:
//
//	POST /deltas       publish an incremental model change (JSON body =
//	                   DeltaRequest); the model graph is patched
//	                   copy-on-write and an attached capability index is
//	                   patched instead of rebuilt
//	POST /embed/batch  answer several embedding queries against one
//	                   consistent model snapshot (JSON body =
//	                   BatchEmbedRequest)
func (s *Server) registerDeltas() {
	s.mux.HandleFunc("POST /deltas", s.handleDeltas)
	s.mux.HandleFunc("POST /embed/batch", s.handleEmbedBatch)
}

// DeltaRequest is the JSON body of POST /deltas. All elements are
// addressed by name; attribute values may be numbers, strings or
// booleans, and an explicit null removes the attribute. Operations apply
// in the documented graph.Delta order: edge/node removals, node/edge
// additions, then attribute edits.
type DeltaRequest struct {
	RemoveEdges  []DeltaEdgeRef   `json:"removeEdges,omitempty"`
	RemoveNodes  []string         `json:"removeNodes,omitempty"`
	AddNodes     []DeltaNode      `json:"addNodes,omitempty"`
	AddEdges     []DeltaEdge      `json:"addEdges,omitempty"`
	SetNodeAttrs []DeltaNodeAttrs `json:"setNodeAttrs,omitempty"`
	SetEdgeAttrs []DeltaEdgeAttrs `json:"setEdgeAttrs,omitempty"`
}

// DeltaNode adds one named node.
type DeltaNode struct {
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// DeltaEdge adds one edge between named nodes.
type DeltaEdge struct {
	Source string         `json:"source"`
	Target string         `json:"target"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// DeltaEdgeRef removes one edge by endpoint names.
type DeltaEdgeRef struct {
	Source string `json:"source"`
	Target string `json:"target"`
}

// DeltaNodeAttrs edits one node's attributes (null value = remove).
type DeltaNodeAttrs struct {
	Node  string         `json:"node"`
	Attrs map[string]any `json:"attrs"`
}

// DeltaEdgeAttrs edits one edge's attributes (null value = remove).
type DeltaEdgeAttrs struct {
	Source string         `json:"source"`
	Target string         `json:"target"`
	Attrs  map[string]any `json:"attrs"`
}

// DeltaResponse is the JSON reply of POST /deltas.
type DeltaResponse struct {
	// Version is the model version the delta published.
	Version uint64 `json:"version"`
	// Structural is true when the delta changed the topology (IDs were
	// renumbered and any capability index was rebuilt rather than
	// patched).
	Structural bool `json:"structural"`
}

// jsonAttrs splits a JSON attribute map into a typed set bag and the
// names explicitly nulled out.
func jsonAttrs(m map[string]any) (graph.Attrs, []string, error) {
	var set graph.Attrs
	var unset []string
	for name, v := range m {
		switch x := v.(type) {
		case nil:
			unset = append(unset, name)
		case float64:
			set = set.SetNum(name, x)
		case string:
			set = set.SetStr(name, x)
		case bool:
			set = set.SetBool(name, x)
		default:
			return nil, nil, fmt.Errorf("attribute %q has unsupported JSON type %T", name, v)
		}
	}
	return set, unset, nil
}

// decodeDelta converts the wire format into a graph.Delta. Requests that
// can never succeed against any model — malformed attribute values,
// nameless or duplicated additions, self-loops — are rejected here so the
// handler answers 400; only name resolution against the live model (a
// staleness question) is left to Model.Apply and its 409.
func decodeDelta(req *DeltaRequest) (*graph.Delta, error) {
	d := &graph.Delta{RemoveNodes: req.RemoveNodes}
	for _, ref := range req.RemoveEdges {
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgeRef{Source: ref.Source, Target: ref.Target})
	}
	addedNode := make(map[string]bool, len(req.AddNodes))
	for _, n := range req.AddNodes {
		if n.Name == "" {
			return nil, fmt.Errorf("addNodes: node without a name")
		}
		if addedNode[n.Name] {
			return nil, fmt.Errorf("addNodes: node %q added twice", n.Name)
		}
		addedNode[n.Name] = true
		attrs, unset, err := jsonAttrs(n.Attrs)
		if err != nil {
			return nil, fmt.Errorf("addNodes %q: %v", n.Name, err)
		}
		if len(unset) > 0 {
			return nil, fmt.Errorf("addNodes %q: null attribute values are not allowed on additions", n.Name)
		}
		d.AddNodes = append(d.AddNodes, graph.NodeSpec{Name: n.Name, Attrs: attrs})
	}
	for _, e := range req.AddEdges {
		if e.Source == e.Target {
			return nil, fmt.Errorf("addEdges %q-%q: self-loops are not allowed", e.Source, e.Target)
		}
		attrs, unset, err := jsonAttrs(e.Attrs)
		if err != nil {
			return nil, fmt.Errorf("addEdges %q-%q: %v", e.Source, e.Target, err)
		}
		if len(unset) > 0 {
			return nil, fmt.Errorf("addEdges %q-%q: null attribute values are not allowed on additions", e.Source, e.Target)
		}
		d.AddEdges = append(d.AddEdges, graph.EdgeSpec{Source: e.Source, Target: e.Target, Attrs: attrs})
	}
	for _, up := range req.SetNodeAttrs {
		set, unset, err := jsonAttrs(up.Attrs)
		if err != nil {
			return nil, fmt.Errorf("setNodeAttrs %q: %v", up.Node, err)
		}
		d.SetNodeAttrs = append(d.SetNodeAttrs, graph.NodeAttrUpdate{Node: up.Node, Set: set, Unset: unset})
	}
	for _, up := range req.SetEdgeAttrs {
		set, unset, err := jsonAttrs(up.Attrs)
		if err != nil {
			return nil, fmt.Errorf("setEdgeAttrs %q-%q: %v", up.Source, up.Target, err)
		}
		d.SetEdgeAttrs = append(d.SetEdgeAttrs, graph.EdgeAttrUpdate{Source: up.Source, Target: up.Target, Set: set, Unset: unset})
	}
	return d, nil
}

func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !readJSON(w, r, &req) {
		return
	}
	d, err := decodeDelta(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	version, err := s.svc.Model().Apply(d)
	if err != nil {
		// decodeDelta already rejected requests that are malformed in
		// themselves; what remains is name resolution against the live
		// model — unknown/missing names or an addition colliding with an
		// existing element — i.e. the client's view is stale.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, DeltaResponse{Version: version, Structural: d.Structural()})
}

// BatchEmbedRequest is the JSON body of POST /embed/batch.
type BatchEmbedRequest struct {
	Requests []EmbedRequest `json:"requests"`
}

// BatchEmbedResult is one item's outcome; exactly one field is set.
type BatchEmbedResult struct {
	Result *EmbedResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// BatchEmbedResponse is the JSON reply of POST /embed/batch.
type BatchEmbedResponse struct {
	// ModelVersion is the single snapshot every item was answered
	// against.
	ModelVersion uint64             `json:"modelVersion"`
	Results      []BatchEmbedResult `json:"results"`
}

// maxBatchItems bounds one /embed/batch request; larger batches answer
// 400, so one batch holds its engine slot for a bounded number of
// searches.
const maxBatchItems = 256

func (s *Server) handleEmbedBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchEmbedRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no requests"))
		return
	}
	if len(req.Requests) > maxBatchItems {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch has %d requests, limit is %d", len(req.Requests), maxBatchItems))
		return
	}

	// Decode every item first; a malformed item fails alone. The engine
	// answers the rest in one slot, in order, against one snapshot.
	sreqs := make([]service.Request, len(req.Requests))
	decodeErrs := make([]error, len(req.Requests))
	for i := range req.Requests {
		sreqs[i], decodeErrs[i] = s.decodeEmbedRequest(&req.Requests[i])
	}
	results, version, err := s.eng.EmbedBatch(r.Context(), sreqs)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	out := BatchEmbedResponse{ModelVersion: version, Results: make([]BatchEmbedResult, len(results))}
	for i, res := range results {
		switch {
		case decodeErrs[i] != nil:
			out.Results[i].Error = decodeErrs[i].Error()
		case res.Err != nil:
			out.Results[i].Error = res.Err.Error()
		default:
			r := embedResponseJSON(res.Response)
			r.Cached = res.FromCache
			out.Results[i] = BatchEmbedResult{Result: &r}
		}
	}
	writeJSON(w, http.StatusOK, out)
}
