package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request as the client saw it.
type sample struct {
	seq     int32 // position in the op sequence (not wrapped)
	kind    kind
	code    int16         // HTTP status; 0 = transport error
	done    time.Duration // completion time since the run's origin
	latency time.Duration
	// status/empty come from the cheap scan every reply gets; body is
	// kept (for full verification off the clock) only when the sampling
	// policy asks and the exact bytes were not seen before.
	status  replyStatus
	empty   bool // "mappings": []
	body    []byte
	hash    uint64
	where   string // coordinator's X-Netembed-Answered-By, federated only
	reqLen  int32
	respLen int32
}

type replyStatus uint8

const (
	statusUnknown replyStatus = iota
	statusComplete
	statusPartial
	statusInconclusive
)

var (
	statusKey   = []byte(`"status": "`)
	emptyMapKey = []byte(`"mappings": []`)
)

// scanReply extracts the status and whether any mapping came back without
// decoding the JSON: the server pretty-prints with a fixed layout, and a
// full decode per reply would cost the closed loop ~10% of repeat_hot.
func scanReply(body []byte) (replyStatus, bool) {
	st := statusUnknown
	if i := bytes.Index(body, statusKey); i >= 0 {
		rest := body[i+len(statusKey):]
		switch {
		case bytes.HasPrefix(rest, []byte("complete")):
			st = statusComplete
		case bytes.HasPrefix(rest, []byte("partial")):
			st = statusPartial
		case bytes.HasPrefix(rest, []byte("inconclusive")):
			st = statusInconclusive
		}
	}
	return st, bytes.Contains(body, emptyMapKey)
}

// traceHeader carries the op sequence number so the traced pass's server
// middleware can parent its span on the client's.
const traceHeader = "X-Bench-Trace"

// loadRun drives one fixture closed-loop: each of n client goroutines
// owns one keep-alive connection, takes the next op of the shared
// sequence, waits for the reply, and records it.
type loadRun struct {
	url     string
	fx      *fixture
	clients int
	origin  time.Time
	next    atomic.Int64
	stop    atomic.Bool
	// spans, when non-nil and enabled, records one client span per
	// request (traced pass only).
	spans *spanRecorder

	perClient [][]sample
	seed      maphash.Seed
}

func newLoadRun(url string, fx *fixture, clients int, spans *spanRecorder) *loadRun {
	return &loadRun{
		url: url, fx: fx, clients: clients, spans: spans,
		origin: time.Now(), perClient: make([][]sample, clients), seed: maphash.MakeSeed(),
	}
}

// start launches the clients; the returned function stops them after
// their in-flight request and waits for them.
func (r *loadRun) start() (stopAndWait func()) {
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(c)
		}(c)
	}
	return func() {
		r.stop.Store(true)
		wg.Wait()
	}
}

func (r *loadRun) client(c int) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 2 * defaultTimeout}
	seen := map[uint64]bool{}
	var buf bytes.Buffer
	samples := make([]sample, 0, 1<<14)
	for !r.stop.Load() {
		seq := r.next.Add(1) - 1
		o := r.fx.ops[int(seq)%len(r.fx.ops)]
		s := sample{seq: int32(seq), kind: o.kind, reqLen: int32(len(o.body))}

		req, err := http.NewRequest(http.MethodPost, r.url+o.path, bytes.NewReader(o.body))
		if err != nil {
			panic(err) // a malformed URL is a bug in this program
		}
		req.Header.Set("Content-Type", "application/json")
		var sp *span
		if r.spans.enabled() {
			req.Header.Set(traceHeader, strconv.FormatInt(seq, 10))
			sp = r.spans.begin(seq, 0, "client.post")
		}
		start := time.Now()
		resp, err := hc.Do(req)
		if err == nil {
			buf.Reset()
			_, err = io.Copy(&buf, resp.Body)
			resp.Body.Close()
		}
		end := time.Now()
		r.spans.end(sp)
		s.latency, s.done = end.Sub(start), end.Sub(r.origin)
		if err == nil {
			s.code, s.respLen = int16(resp.StatusCode), int32(buf.Len())
			if r.fx.federated {
				s.where = resp.Header.Get("X-Netembed-Answered-By")
			}
			body := buf.Bytes()
			s.status, s.empty = scanReply(body)
			if o.expect == expectDelta || int(seq)%r.fx.verifyEvery == 0 {
				s.hash = maphash.Bytes(r.seed, body)
				if !seen[s.hash] {
					seen[s.hash] = true
					s.body = append([]byte(nil), body...)
				}
			}
		}
		samples = append(samples, s)
	}
	r.perClient[c] = samples
}

// windowEdge is the process-wide state sampled at a window boundary.
type windowEdge struct {
	at      time.Duration
	cpu     time.Duration
	mallocs uint64
}

func (r *loadRun) edge() windowEdge {
	return windowEdge{at: time.Since(r.origin), cpu: cpuTime(), mallocs: mallocs()}
}

// measure runs warm-up then `windows` back-to-back windows and returns
// the boundary samples (len windows+1).
func (r *loadRun) measure(warm, window time.Duration, windows int) []windowEdge {
	time.Sleep(warm)
	edges := []windowEdge{r.edge()}
	for w := 0; w < windows; w++ {
		time.Sleep(time.Until(r.origin.Add(edges[0].at + time.Duration(w+1)*window)))
		edges = append(edges, r.edge())
	}
	return edges
}

// merged returns every client's samples, grouped per client in
// completion order.
func (r *loadRun) merged() []sample {
	var all []sample
	for _, s := range r.perClient {
		all = append(all, s...)
	}
	return all
}

// prime sends every op of a hot fixture once, so that the run measures
// the all-hit steady state from its first window on: warming 32 bodies
// through the miss path takes longer than the warm-up share of a short
// run. It is warm-up, not set-up, and is timed as neither.
func prime(url string, fx *fixture) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make(chan error, workers)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			hc := &http.Client{Timeout: 2 * defaultTimeout}
			defer hc.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(fx.ops) {
					errs <- nil
					return
				}
				code, _, _, err := postOnce(hc, url+fx.ops[i].path, fx.ops[i].body)
				if err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("priming op %d: status %d err %v", i, code, err)
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// postOnce issues one request outside any load run (set-up placements,
// the traced replay's loopback rung).
func postOnce(hc *http.Client, url string, body []byte) (int, []byte, http.Header, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, out, resp.Header, nil
}
