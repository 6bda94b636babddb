package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Trace (the op's sequence number); Parent is the span that caused it.
type span struct {
	Trace  int64  `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps spans in memory until the run ends (choosing-metrics
// §4). Every span is recorded from this directory's code, around calls
// into the program's exported functions; nothing inside the program
// emits spans yet. A nil recorder records nothing.
type spanRecorder struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []*span

	// curTrace/curParent are the staged replay's position. The replay is
	// single-threaded, so wrappers that cannot be handed a parent
	// (service.Shard decorators, shard-side HTTP middleware) read it
	// from here.
	curTrace, curParent atomic.Int64
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

func (r *spanRecorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span; end closes and stores it. Both accept nil.
func (r *spanRecorder) begin(trace, parent int64, name string) *span {
	if !r.enabled() {
		return nil
	}
	return &span{Trace: trace, Span: r.nextID.Add(1), Parent: parent, Name: name, Start: int64(time.Since(r.origin))}
}

func (r *spanRecorder) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records fn as a child span and returns its duration.
func (r *spanRecorder) timed(trace, parent int64, name string, fn func()) time.Duration {
	s := r.begin(trace, parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(s)
	return d
}

// middleware wraps a server handler with a span per request. A request
// from the closed loop's client names its trace in traceHeader; one that
// arrives through the program's own HTTP client during the staged replay
// (a coordinator probing a shard) carries no header and is parented on
// the replay's current position instead. While the recorder is off it
// adds one atomic load.
func (r *spanRecorder) middleware(name string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if !r.enabled() {
				next.ServeHTTP(w, req)
				return
			}
			trace, parent := r.current()
			if h := req.Header.Get(traceHeader); h != "" {
				trace, _ = strconv.ParseInt(h, 10, 64)
				parent = 0
			}
			s := r.begin(trace, parent, name)
			next.ServeHTTP(w, req)
			r.end(s)
		})
	}
}

func (r *spanRecorder) setCurrent(trace, parent int64) {
	r.curTrace.Store(trace)
	r.curParent.Store(parent)
}

func (r *spanRecorder) current() (trace, parent int64) {
	return r.curTrace.Load(), r.curParent.Load()
}

// anyParent makes named match spans under every parent.
const anyParent = -1

// named returns the recorded spans called name under parent.
func (r *spanRecorder) named(name string, parent int64) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s.Name == name && (parent == anyParent || s.Parent == parent) {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
