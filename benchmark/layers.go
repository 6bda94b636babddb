package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"netembed/internal/core"
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/index"
	"netembed/internal/service"
	"netembed/internal/service/httpapi"
)

// layerMetric declares one per-layer metric. The module name is the
// prefix; BENCHMARK.json's per_layer list is exactly this table (the
// smoke test holds them together).
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = []layerMetric{
	{"sets.and_popcount_ns_per_kword", "ns", "lower"},
	{"graphml.decode_us", "us", "lower"},
	{"expr.compile_us", "us", "lower"},
	{"core.filters_ms", "ms", "lower"},
	{"core.filters_pairs_per_op", "count", "lower"},
	{"core.filters_entries_per_op", "count", "lower"},
	{"core.filters_ns_per_pair", "ns", "lower"},
	{"core.filters_allocs_per_op", "count", "lower"},
	{"core.search_ms", "ms", "lower"},
	{"core.nodes_per_op", "count", "lower"},
	{"core.prune_ops_per_op", "count", "lower"},
	{"core.backtracks_per_op", "count", "lower"},
	{"core.wipeouts_per_op", "count", "lower"},
	{"core.backjumps_per_op", "count", "higher"},
	{"core.steals_per_op", "count", "higher"},
	{"core.bound_cuts_per_op", "count", "higher"},
	{"core.ns_per_node", "ns", "lower"},
	{"core.search_allocs_per_op", "count", "lower"},
	{"core.verify_us", "us", "lower"},
	{"core.path_embed_ms", "ms", "lower"},
	{"core.path_witness_probes_per_op", "count", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"index.apply_attr_us", "us", "lower"},
	{"index.apply_struct_us", "us", "lower"},
	{"graph.apply_delta_us", "us", "lower"},
	{"service.embed_ms", "ms", "lower"},
	{"service.self_us", "us", "lower"},
	{"service.snapshot_us", "us", "lower"},
	{"service.model_apply_us", "us", "lower"},
	{"service.ledger_alloc_us", "us", "lower"},
	{"service.epochs_live", "count", "lower"},
	{"service.epochs_retired", "count", "higher"},
	{"engine.submit_hit_us", "us", "lower"},
	{"engine.submit_miss_overhead_us", "us", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.queue_rejections", "count", "lower"},
	{"httpapi.handler_ms", "ms", "lower"},
	{"httpapi.self_us", "us", "lower"},
	{"httpapi.loopback_us", "us", "lower"},
	{"httpapi.query_cache_hit_ratio", "ratio", "higher"},
	{"httpapi.req_bytes_per_op", "B", "lower"},
	{"httpapi.resp_bytes_per_op", "B", "lower"},
	{"lifecycle.check_all_ms", "ms", "lower"},
	{"lifecycle.repairs", "count", "higher"},
	{"lifecycle.repair_failures", "count", "lower"},
	{"coordinator.single_embed_ms", "ms", "lower"},
	{"coordinator.local_embed_ms", "ms", "lower"},
	{"coordinator.remote_embed_ms", "ms", "lower"},
	{"coordinator.vs_single_ratio", "ratio", "lower"},
	{"coordinator.remote_overhead_us", "us", "lower"},
	{"coordinator.cross_embed_ms", "ms", "lower"},
	{"coordinator.cross_share", "ratio", "lower"},
	{"coordinator.top_shard_share", "ratio", "lower"},
	{"coordinator.shard_errors", "count", "lower"},
	{"coordinator.span_inconclusive_ratio", "ratio", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_live_mb", "MB", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"client.ecf_p50_ms", "ms", "lower"},
	{"client.rwb_p50_ms", "ms", "lower"},
	{"client.nomatch_p50_ms", "ms", "lower"},
	{"client.optimize_p50_ms", "ms", "lower"},
	{"client.pecf_p50_ms", "ms", "lower"},
	{"client.read_p50_ms", "ms", "lower"},
	{"client.delta_attr_p50_ms", "ms", "lower"},
	{"client.delta_struct_p50_ms", "ms", "lower"},
	{"client.local_p50_ms", "ms", "lower"},
	{"client.span_p50_ms", "ms", "lower"},
	{"client.http_errors", "count", "lower"},
	{"client.invalid_mappings", "count", "lower"},
	{"client.wrong_answers", "count", "lower"},
	{"client.inconclusive", "count", "lower"},
	{"client.stub_us", "us", "lower"},
	{"client.stub_allocs_per_op", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.layer_sum_ratio", "ratio", "higher"},
}

// layerSet accumulates per-layer readings. Every declared metric is
// reported by every traced run; one whose layer is not on the workload's
// path stays 0.
type layerSet struct {
	units   map[string]string
	values  map[string]float64
	samples map[string][]float64
}

func newLayerSet() *layerSet {
	ls := &layerSet{units: map[string]string{}, values: map[string]float64{}, samples: map[string][]float64{}}
	for _, m := range layerMetrics {
		ls.units[m.name] = m.unit
		ls.values[m.name] = 0
	}
	return ls
}

// declared panics on a metric name layerMetrics does not list: a typo
// must not become a silently missing metric.
func (ls *layerSet) declared(name string) {
	if _, ok := ls.units[name]; !ok {
		panic("undeclared layer metric " + name)
	}
}

func (ls *layerSet) set(name string, v float64) {
	ls.declared(name)
	ls.values[name] = v
}

// add records one observation of a per-op metric; finish reports the
// median of timings and of per-op ratios (a single preempted call must
// not own the figure) and the mean of counts (which repeat exactly for a
// seed).
func (ls *layerSet) add(name string, v float64) {
	ls.declared(name)
	ls.samples[name] = append(ls.samples[name], v)
}

func (ls *layerSet) finish() map[string]metric {
	out := make(map[string]metric, len(ls.values))
	for name, v := range ls.values {
		if obs := ls.samples[name]; len(obs) > 0 {
			switch ls.units[name] {
			case "ms", "us", "ratio":
				v = median(obs)
			default:
				v = mean(obs)
			}
		}
		out[name] = metric{Value: v, Unit: ls.units[name]}
	}
	return out
}

// tracedShard records one span per Embed probe the coordinator sends.
type tracedShard struct {
	service.Shard
	rec *spanRecorder
}

func (t tracedShard) Embed(req service.Request) (*service.Response, error) {
	trace, parent := t.rec.current()
	s := t.rec.begin(trace, parent, "shard.embed")
	resp, err := t.Shard.Embed(req)
	t.rec.end(s)
	return resp, err
}

// counters is the process- and stack-wide state diffed around the traced
// pass's closed-loop windows.
type counters struct {
	hits, misses, rejections int64
	qHits, qMisses           uint64
	repairs, repairFailures  int64
	numGC                    uint32
	pauseNs                  uint64
}

func readCounters(t *target) counters {
	var c counters
	for _, st := range t.stacks() {
		es := st.eng.Stats()
		c.hits += es.CacheHits
		c.misses += es.CacheMisses
		c.rejections += es.QueueFullRejections
		ls := st.mgr.Stats()
		c.repairs += ls.Repaired
		c.repairFailures += ls.RepairFailures
		// The decode LRU's counters are only exported through GET /stats.
		var stats struct {
			API struct {
				QueryCacheHits   uint64 `json:"queryCacheHits"`
				QueryCacheMisses uint64 `json:"queryCacheMisses"`
			} `json:"api"`
		}
		rr := httptest.NewRecorder()
		st.api.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if json.Unmarshal(rr.Body.Bytes(), &stats) == nil {
			c.qHits += stats.API.QueryCacheHits
			c.qMisses += stats.API.QueryCacheMisses
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.numGC, c.pauseNs = ms.NumGC, ms.PauseTotalNs
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// minReplayBudget floors the staged replay's time guard, so that short
// runs (the smoke test) still replay their whole fixed sample and report
// counts that repeat exactly.
const minReplayBudget = 3 * time.Second

// traceDir is where the traced pass writes its spans, relative to the
// repository root the program is run from.
var traceDir = filepath.Join("benchmark", "out")

// runTraced is the separate traced pass. It has three parts, sized as
// shares of the requested run length:
//
//  1. a closed loop like the untraced pass, one window with span
//     recording off and one with it on (their throughput ratio is the
//     tracing overhead), around which the program's exported counters
//     are diffed;
//  2. the same generator against a no-op handler (the client's own cost);
//  3. a single-threaded staged replay of a fixed sample of the op
//     sequence through each layer's exported functions, one span per
//     call.
//
// End-to-end numbers never come from this pass.
func runTraced(w workload, seed int64, seconds float64, sc scale) (*result, error) {
	fx, err := w.build(seed, sc)
	if err != nil {
		return nil, err
	}
	ls := newLayerSet()
	rec := newSpanRecorder()
	ls.set("sets.and_popcount_ns_per_kword", calibrationKernel())
	var builds []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		index.Build(fx.host, 1, index.Config{})
		builds = append(builds, ms(time.Since(start)))
	}
	ls.set("index.build_ms", median(builds))

	total := time.Duration(seconds * float64(time.Second))
	tl, err := tracedClosedLoop(w, fx, rec, ls, total/10, total/5)
	if err != nil {
		return nil, err
	}
	if err := stubLoop(w, fx, ls, total/20); err != nil {
		return nil, err
	}
	rp, err := newReplayer(w, fx, rec, ls, seed, sc)
	if err != nil {
		return nil, err
	}
	rp.run(sc.traceSample[w.name], time.Now().Add(max(total*2/5, minReplayBudget)))
	rp.close()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	ls.set("runtime.heap_live_mb", float64(ms.HeapAlloc)/(1<<20))
	ls.set("runtime.peak_rss_mb", peakRSSMB())

	if err := rec.write(filepath.Join(traceDir, "trace_"+w.name+".jsonl")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: spans not written:", err)
	}
	failed := tl.failed() + rp.failed
	return &result{
		Correct:   tl.attempted > 0 && failed == 0,
		Attempted: tl.attempted + rp.attempted,
		Failed:    failed,
		Metrics:   ls.finish(),
	}, nil
}

// tracedClosedLoop is part 1 of the traced pass.
func tracedClosedLoop(w workload, fx *fixture, rec *spanRecorder, ls *layerSet, warm, window time.Duration) (tally, error) {
	t, _, err := boot(fx, hooks{handler: rec.middleware("httpapi.handler")})
	if err != nil {
		return tally{}, err
	}
	defer t.close()
	if fx.hot {
		if err := prime(t.url, fx); err != nil {
			return tally{}, err
		}
	}

	run := newLoadRun(t.url, fx, w.clients, rec)
	stop := run.start()
	time.Sleep(warm)
	before := readCounters(t)
	edges := []windowEdge{run.edge()}
	time.Sleep(window)
	edges = append(edges, run.edge())
	rec.on.Store(true)
	time.Sleep(window)
	edges = append(edges, run.edge())
	rec.on.Store(false)
	after := readCounters(t)
	stop()

	samples := run.merged()
	verdicts := newChecker(fx).judge(samples)
	ws, tl := summarize(samples, verdicts, edges)

	var all []float64
	var byKind [numKinds][]float64
	for i := range ws {
		all = append(all, ws[i].latencies...)
		for k := range byKind {
			byKind[k] = append(byKind[k], ws[i].byKind[k]...)
		}
	}
	ls.set("client.latency_p99_ms", quantile(all, 0.99))
	for k, name := range kindNames {
		ls.set("client."+name+"_p50_ms", median(byKind[k]))
	}
	ls.set("client.http_errors", float64(tl.http))
	ls.set("client.invalid_mappings", float64(tl.invalid))
	ls.set("client.wrong_answers", float64(tl.wrong))
	ls.set("client.inconclusive", float64(tl.noProof))
	ls.set("httpapi.req_bytes_per_op", ratio(float64(tl.reqBytes), float64(tl.attempted)))
	ls.set("httpapi.resp_bytes_per_op", ratio(float64(tl.respBytes), float64(tl.attempted)))

	// What the wire, net/http and the client add around the handler, from
	// the traced window's own pairs of client and server spans.
	handlerOf := map[int64]time.Duration{}
	for _, s := range rec.named("httpapi.handler", anyParent) {
		handlerOf[s.Trace] = s.duration()
	}
	for _, s := range rec.named("client.post", anyParent) {
		if h, ok := handlerOf[s.Trace]; ok {
			ls.add("httpapi.loopback_us", us(s.duration()-h))
		}
	}

	untraced := float64(ws[0].ok) / (edges[1].at - edges[0].at).Seconds()
	traced := float64(ws[1].ok) / (edges[2].at - edges[1].at).Seconds()
	ls.set("trace.overhead_ratio", ratio(traced, untraced))

	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	ls.set("engine.cache_hit_ratio", ratio(hits, hits+misses))
	ls.set("engine.queue_rejections", float64(after.rejections-before.rejections))
	qh, qm := float64(after.qHits-before.qHits), float64(after.qMisses-before.qMisses)
	ls.set("httpapi.query_cache_hit_ratio", ratio(qh, qh+qm))
	ls.set("lifecycle.repairs", float64(after.repairs-before.repairs))
	ls.set("lifecycle.repair_failures", float64(after.repairFailures-before.repairFailures))
	ls.set("runtime.gc_count", float64(after.numGC-before.numGC))
	ls.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)

	var live int
	var retired uint64
	for _, st := range t.stacks() {
		es := st.model.EpochStats()
		live += es.LiveEpochs
		retired += es.Retired
	}
	ls.set("service.epochs_live", float64(live))
	ls.set("service.epochs_retired", float64(retired))

	if t.cl != nil {
		info := t.cl.coord.Cluster()
		var embeds, top, errs uint64
		for _, sh := range info.Shards {
			embeds += sh.Embeds
			errs += sh.Errors
			if sh.Embeds > top {
				top = sh.Embeds
			}
		}
		ls.set("coordinator.top_shard_share", ratio(float64(top), float64(embeds)))
		ls.set("coordinator.shard_errors", float64(errs))
		ls.set("coordinator.cross_share", ratio(float64(tl.cross), float64(tl.attempted)))
		ls.set("coordinator.span_inconclusive_ratio", ratio(float64(tl.spanNoProof), float64(tl.span)))
	}
	return tl, nil
}

// stubLoop is part 2: the same clients and op sequence against a handler
// that drains the request and answers a canned body, i.e. the generator,
// net/http and loopback with no program behind them. allocs_per_op
// includes this constant share on every workload.
func stubLoop(w workload, fx *fixture, ls *layerSet, window time.Duration) error {
	reply := []byte("{\n  \"status\": \"complete\",\n  \"mappings\": []\n}\n")
	srv, url, err := listenAndServe(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write(reply)
	}))
	if err != nil {
		return err
	}
	defer stopServer(srv)
	stub := *fx
	stub.verifyEvery = 1 << 30 // keep no bodies: nothing to verify
	run := newLoadRun(url, &stub, w.clients, nil)
	stop := run.start()
	time.Sleep(window / 4)
	e0 := run.edge()
	time.Sleep(window)
	e1 := run.edge()
	stop()
	var lat []float64
	for _, s := range run.merged() {
		if s.done >= e0.at && s.done < e1.at {
			lat = append(lat, us(s.latency))
		}
	}
	ls.set("client.stub_us", median(lat))
	ls.set("client.stub_allocs_per_op", ratio(float64(e1.mallocs-e0.mallocs), float64(len(lat))))
	return nil
}

// replayer is part 3: it pushes each sampled op, alone and one stage at
// a time, through the exported seam of every layer on its path. Each rung
// of the ladder (service/engine, handler, loopback) has its own copy of
// the system so that every rung sees every request for the first time,
// exactly as the closed loop's server does.
type replayer struct {
	w   workload
	fx  *fixture
	rec *spanRecorder
	ls  *layerSet
	hc  *http.Client

	// Single-process rungs.
	a, b *stack  // a: direct layer calls; b: in-process ServeHTTP
	c    *target // real loopback server

	// Federated rungs.
	single         *stack   // one Service over the union host
	local, remote  *cluster // coordinator over LocalShards / traced RemoteShards
	handlerCluster *cluster // coordinator behind in-process ClusterServer.ServeHTTP

	// The benchmark's own copy of the model chain, for timing
	// Graph.ApplyDelta and Index.Apply in isolation.
	g       *graph.Graph
	idx     *index.Index
	version uint64

	// decoded marks ops whose GraphML the handler rung has already seen:
	// its decode LRU then hits, so the decode is no longer on the path.
	decoded map[*op]bool

	rng                   *rand.Rand
	sc                    scale
	attempted, failed     int
	searchNs, searchNodes float64
	filterNs, filterPairs float64
	crossNs, crossN       float64
	singleNs, localNs     float64
}

func newReplayer(w workload, fx *fixture, rec *spanRecorder, ls *layerSet, seed int64, sc scale) (*replayer, error) {
	r := &replayer{
		w: w, fx: fx, rec: rec, ls: ls, sc: sc,
		hc:  &http.Client{Timeout: 2 * defaultTimeout},
		rng: rand.New(rand.NewSource(seed ^ 0x7265706c6179)),
		g:   fx.host, version: 1, decoded: map[*op]bool{},
	}
	r.idx = index.Build(fx.host, 1, index.Config{})
	var err error
	if r.c, _, err = boot(fx, hooks{}); err != nil {
		return nil, err
	}
	if fx.federated {
		r.single = newStack(fx.host)
		if r.local, err = newCluster(fx.host, false, nil, nil); err != nil {
			r.close()
			return nil, err
		}
		wrap := func(sh service.Shard) service.Shard { return tracedShard{Shard: sh, rec: rec} }
		if r.remote, err = newCluster(fx.host, true, wrap, rec.middleware("shard.handler")); err != nil {
			r.close()
			return nil, err
		}
		if r.handlerCluster, err = newCluster(fx.host, true, nil, nil); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}
	if fx.hot {
		// repeat_hot measures the hit path, where no rung can spoil
		// another's first sight of a request: one primed stack serves all.
		r.a, r.b = r.c.st, r.c.st
		if err := prime(r.c.url, fx); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}
	r.a, r.b = newStack(fx.host), newStack(fx.host)
	for _, st := range []*stack{r.a, r.b} {
		for _, o := range fx.placements {
			rr := httptest.NewRecorder()
			st.api.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
			if rr.Code != http.StatusCreated {
				r.close()
				return nil, fmt.Errorf("replay placement: status %d", rr.Code)
			}
		}
	}
	return r, nil
}

func (r *replayer) close() {
	r.hc.CloseIdleConnections()
	for _, st := range []*stack{r.a, r.b, r.single} {
		if st != nil && (r.c == nil || st != r.c.st) {
			st.close()
		}
	}
	for _, cl := range []*cluster{r.local, r.remote, r.handlerCluster} {
		if cl != nil {
			cl.close()
		}
	}
	if r.c != nil {
		r.c.close()
	}
}

// serviceRequest mirrors httpapi's wire→service.Request translation for
// the fields the workloads set.
func serviceRequest(wire *httpapi.EmbedRequest, q *graph.Graph) service.Request {
	req := service.Request{
		Query:          q,
		EdgeConstraint: wire.EdgeConstraint,
		NodeConstraint: wire.NodeConstraint,
		Algorithm:      service.Algorithm(wire.Algorithm),
		MaxResults:     wire.MaxResults,
		Seed:           wire.Seed,
	}
	if wire.Objective != nil && wire.Objective.Kind == "load-balance" {
		req.Objective, req.Optimize = core.Objective{Kind: core.ObjectiveLoadBalance}, true
	}
	return req
}

// run replays the first n ops (stopping early only if the deadline
// passes, so counts repeat exactly for a seed on any machine fast enough)
// and then folds the sums into the derived metrics.
func (r *replayer) run(n int, deadline time.Time) {
	r.rec.on.Store(true)
	defer r.rec.on.Store(false)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		o := r.fx.ops[i%len(r.fx.ops)]
		root := r.rec.begin(int64(i), 0, "replay."+kindNames[o.kind])
		r.rec.setCurrent(int64(i), root.Span)
		r.attempted++
		var err error
		switch {
		case o.delta != nil:
			err = r.deltaOp(int64(i), root.Span, o)
		case r.fx.federated:
			err = r.federatedOp(int64(i), root.Span, o)
		case r.fx.hot:
			err = r.hitOp(int64(i), root.Span, o)
		default:
			err = r.embedOp(int64(i), root.Span, o)
		}
		r.rec.end(root)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "benchmark: replay op %d (%s): %v\n", i, kindNames[o.kind], err)
		}
	}
	if r.w.name == "novel_constrained" {
		r.pathRequests(deadline)
	}
	r.ls.set("core.ns_per_node", ratio(r.searchNs, r.searchNodes))
	r.ls.set("core.filters_ns_per_pair", ratio(r.filterNs, r.filterPairs))
	r.ls.set("coordinator.cross_embed_ms", ratio(r.crossNs, r.crossN)/1e6)
	r.ls.set("coordinator.vs_single_ratio", ratio(r.localNs, r.singleNs))
}

// layerSum books one op's trace.layer_sum_ratio: the deepest layer calls
// on its path, each timed on its own, over the handler call that
// contains them all. Near 1 means the layers the replay can see account
// for the handler's time; the remainder is glue no exported seam isolates
// (mux, job bookkeeping, the worker hand-off, name resolution).
func (r *replayer) layerSum(handler, leaves time.Duration) {
	r.ls.add("trace.layer_sum_ratio", ratio(float64(leaves), float64(handler)))
}

// stage times fn as a child span of the op's root.
func (r *replayer) stage(trace, root int64, name string, fn func()) time.Duration {
	return r.rec.timed(trace, root, name, fn)
}

// checkAnswer applies the op's expectation to a service-level answer.
func checkAnswer(o *op, resp *service.Response, p *core.Problem) error {
	switch o.expect {
	case expectNone:
		if resp.Status != core.StatusComplete || len(resp.Mappings) != 0 {
			return fmt.Errorf("want complete/0, got %s/%d", resp.Status, len(resp.Mappings))
		}
		return nil
	case expectMappingOrInconclusive:
		if resp.Status == core.StatusInconclusive && len(resp.Named) == 0 {
			return nil
		}
	case expectOptimum:
		if resp.ObjectiveCost == nil {
			return fmt.Errorf("optimizing answer carries no objective cost")
		}
	}
	if len(resp.Named) == 0 {
		return fmt.Errorf("planted query answered %s with no mapping", resp.Status)
	}
	if p != nil {
		for _, m := range resp.Mappings {
			if err := p.Verify(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordedPost drives h in process and returns the recorder.
func recordedPost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rr
}

// encodeStage re-encodes a recorded /embed reply the way the handler's
// writeJSON does, timing the codec alone.
func (r *replayer) encodeStage(trace, root int64, recorded []byte) time.Duration {
	var reply httpapi.EmbedResponse
	if json.Unmarshal(recorded, &reply) != nil {
		return 0
	}
	var buf bytes.Buffer
	return r.stage(trace, root, "httpapi.json_encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&reply)
	})
}

// handlerAndLoopback runs the two outermost rungs and books them.
func (r *replayer) handlerAndLoopback(trace, root int64, h http.Handler, url string, o *op, inner time.Duration) (*httptest.ResponseRecorder, time.Duration, error) {
	var rr *httptest.ResponseRecorder
	tHandler := r.stage(trace, root, "httpapi.handler", func() { rr = recordedPost(h, o.path, o.body) })
	if rr.Code != http.StatusOK {
		return rr, tHandler, fmt.Errorf("handler answered %d: %s", rr.Code, rr.Body.Bytes())
	}
	// The loopback rung is recorded as a span only: httpapi.loopback_us
	// comes from the closed loop's paired client and handler spans.
	var code int
	var err error
	r.stage(trace, root, "client.post", func() { code, _, _, err = postOnce(r.hc, url+o.path, o.body) })
	if err != nil || code != http.StatusOK {
		return rr, tHandler, fmt.Errorf("loopback answered %d: %v", code, err)
	}
	r.ls.add("httpapi.handler_ms", ms(tHandler))
	r.ls.add("httpapi.self_us", us(tHandler-inner))
	return rr, tHandler, nil
}

// embedOp replays one cache-missing /embed request.
func (r *replayer) embedOp(trace, root int64, o *op) error {
	var wire httpapi.EmbedRequest
	var q *graph.Graph
	var edgeProg, nodeProg *expr.Program
	var err error
	tJSON := r.stage(trace, root, "httpapi.json_decode", func() { err = json.Unmarshal(o.body, &wire) })
	if err != nil {
		return err
	}
	tML := r.stage(trace, root, "graphml.decode", func() { q, err = graphml.DecodeString(wire.QueryGraphML) })
	if err != nil {
		return err
	}
	tCompile := r.stage(trace, root, "expr.compile", func() {
		if wire.EdgeConstraint != "" {
			edgeProg, err = expr.Compile(wire.EdgeConstraint)
		}
		if err == nil && wire.NodeConstraint != "" {
			nodeProg, err = expr.Compile(wire.NodeConstraint)
		}
	})
	if err != nil {
		return err
	}
	var host *graph.Graph
	var idx *index.Index
	tSnap := r.stage(trace, root, "service.snapshot", func() {
		var v uint64
		host, idx, v = r.a.model.AcquireIndexed()
		r.a.model.Release(v)
	})
	var p *core.Problem
	tProblem := r.stage(trace, root, "core.new_problem", func() { p, err = core.NewProblem(q, host, edgeProg, nodeProg) })
	if err != nil {
		return err
	}
	sreq := serviceRequest(&wire, q)
	opt := core.Options{
		Timeout: defaultTimeout, MaxSolutions: wire.MaxResults, Seed: wire.Seed,
		Index: idx, Objective: sreq.Objective, Optimize: sreq.Optimize,
	}

	var res *core.Result
	var tFilters, tSearch time.Duration
	var filterAllocs, searchAllocs uint64
	if wire.Algorithm == "parallel-ecf" {
		// ParallelECF exports no WithFilters seam; its own stats split
		// the one call into filter build and search.
		m0 := mallocs()
		r.stage(trace, root, "core.parallel_ecf", func() { res = core.ParallelECF(p, opt) })
		searchAllocs = mallocs() - m0
		tFilters, tSearch = res.Stats.FilterBuild, res.Stats.Elapsed-res.Stats.FilterBuild
	} else {
		var f *core.Filters
		m0 := mallocs()
		tFilters = r.stage(trace, root, "core.build_filters", func() { f = core.BuildFilters(p, &opt) })
		m1 := mallocs()
		tSearch = r.stage(trace, root, "core.search", func() {
			if wire.Algorithm == "rwb" {
				res = core.RWBWithFilters(f, opt)
			} else {
				res = core.ECFWithFilters(f, opt)
			}
		})
		filterAllocs, searchAllocs = m1-m0, mallocs()-m1
		r.ls.add("core.filters_allocs_per_op", float64(filterAllocs))
	}
	st := res.Stats
	tVerify := r.stage(trace, root, "core.verify", func() {
		for _, m := range res.Solutions {
			if verr := p.Verify(m); verr != nil && err == nil {
				err = verr
			}
		}
	})
	if err != nil {
		return err
	}
	r.ls.add("graphml.decode_us", us(tML))
	r.ls.add("expr.compile_us", us(tCompile))
	r.ls.add("service.snapshot_us", us(tSnap))
	r.ls.add("core.filters_ms", ms(tFilters))
	r.ls.add("core.filters_pairs_per_op", float64(st.EdgePairsEval))
	r.ls.add("core.filters_entries_per_op", float64(st.FilterEntries))
	r.ls.add("core.search_ms", ms(tSearch))
	r.ls.add("core.search_allocs_per_op", float64(searchAllocs))
	r.ls.add("core.nodes_per_op", float64(st.NodesVisited))
	r.ls.add("core.prune_ops_per_op", float64(st.PruneOps))
	r.ls.add("core.backtracks_per_op", float64(st.Backtracks))
	r.ls.add("core.wipeouts_per_op", float64(st.Wipeouts))
	r.ls.add("core.backjumps_per_op", float64(st.Backjumps))
	r.ls.add("core.steals_per_op", float64(st.Steals))
	r.ls.add("core.bound_cuts_per_op", float64(st.BoundCuts))
	if len(res.Solutions) > 0 {
		r.ls.add("core.verify_us", us(tVerify)/float64(len(res.Solutions)))
	}
	r.filterNs += float64(tFilters)
	r.filterPairs += float64(st.EdgePairsEval)
	r.searchNs += float64(tSearch)
	r.searchNodes += float64(st.NodesVisited)

	// A free placement, when the search found one, times the ledger.
	if len(res.Solutions) > 0 {
		led := r.a.svc.Ledger()
		var lease service.LeaseID
		var lerr error
		tLedger := r.stage(trace, root, "service.ledger", func() {
			if lease, lerr = led.Allocate(res.Solutions[0]); lerr == nil {
				lerr = led.Release(lease)
			}
		})
		if lerr == nil {
			r.ls.add("service.ledger_alloc_us", us(tLedger))
		}
	}

	var resp *service.Response
	tEmbed := r.stage(trace, root, "service.embed", func() { resp, err = r.a.svc.Embed(sreq) })
	if err == nil {
		err = checkAnswer(o, resp, p)
	}
	if err != nil {
		return err
	}
	tMiss := r.stage(trace, root, "engine.submit_wait", func() { _, err = r.a.eng.SubmitWait(context.Background(), sreq) })
	if err != nil {
		return err
	}
	tHit := r.stage(trace, root, "engine.submit_wait_hit", func() { _, err = r.a.eng.SubmitWait(context.Background(), sreq) })
	if err != nil {
		return err
	}
	r.ls.add("service.embed_ms", ms(tEmbed))
	r.ls.add("service.self_us", us(tEmbed-tCompile-tSnap-tProblem-tFilters-tSearch))
	r.ls.add("engine.submit_miss_overhead_us", us(tMiss-tEmbed))
	r.ls.add("engine.submit_hit_us", us(tHit))

	rr, tHandler, err := r.handlerAndLoopback(trace, root, r.b.api, r.c.url, o, tMiss)
	if err != nil {
		return err
	}
	tEncode := r.encodeStage(trace, root, rr.Body.Bytes())
	if r.decoded[o] {
		tML = 0
	}
	r.decoded[o] = true
	r.layerSum(tHandler, tJSON+tML+tCompile+tSnap+tProblem+tFilters+tSearch+tEncode)
	return nil
}

// hitOp replays one request whose answer every cache already holds.
func (r *replayer) hitOp(trace, root int64, o *op) error {
	var wire httpapi.EmbedRequest
	var err error
	tJSON := r.stage(trace, root, "httpapi.json_decode", func() { err = json.Unmarshal(o.body, &wire) })
	if err != nil {
		return err
	}
	sreq := serviceRequest(o.wire, o.query)
	var resp *service.Response
	tHit := r.stage(trace, root, "engine.submit_wait_hit", func() { resp, err = r.a.eng.SubmitWait(context.Background(), sreq) })
	if err == nil {
		err = checkAnswer(o, resp, nil)
	}
	if err != nil {
		return err
	}
	r.ls.add("engine.submit_hit_us", us(tHit))
	rr, tHandler, err := r.handlerAndLoopback(trace, root, r.b.api, r.c.url, o, tHit)
	if err != nil {
		return err
	}
	tEncode := r.encodeStage(trace, root, rr.Body.Bytes())
	r.layerSum(tHandler, tJSON+tHit+tEncode)
	return nil
}

// deltaOp replays one POST /deltas down the write path.
func (r *replayer) deltaOp(trace, root int64, o *op) error {
	var wire httpapi.DeltaRequest
	var err error
	tJSON := r.stage(trace, root, "httpapi.json_decode", func() { err = json.Unmarshal(o.body, &wire) })
	if err != nil {
		return err
	}
	var next *graph.Graph
	tGraph := r.stage(trace, root, "graph.apply_delta", func() { next, err = r.g.ApplyDelta(o.delta) })
	if err != nil {
		return err
	}
	var nextIdx *index.Index
	tIndex := r.stage(trace, root, "index.apply", func() { nextIdx = r.idx.Apply(r.g, next, o.delta, r.version+1) })
	r.g, r.idx, r.version = next, nextIdx, r.version+1
	tModel := r.stage(trace, root, "service.model_apply", func() { _, err = r.a.model.Apply(o.delta) })
	if err != nil {
		return err
	}
	tCheck := r.stage(trace, root, "lifecycle.check_all", func() { r.a.mgr.CheckAll() })
	r.ls.add("graph.apply_delta_us", us(tGraph))
	if o.delta.Structural() {
		r.ls.add("index.apply_struct_us", us(tIndex))
	} else {
		r.ls.add("index.apply_attr_us", us(tIndex))
	}
	r.ls.add("service.model_apply_us", us(tModel))
	r.ls.add("lifecycle.check_all_ms", ms(tCheck))
	_, tHandler, err := r.handlerAndLoopback(trace, root, r.b.api, r.c.url, o, tModel)
	if err != nil {
		return err
	}
	r.layerSum(tHandler, tJSON+tGraph+tIndex)
	return nil
}

// federatedOp replays one query up the distribution ladder: one Service
// on the union host, a coordinator over in-process shards, the same over
// loopback shards, the operator handler, the loopback client.
func (r *replayer) federatedOp(trace, root int64, o *op) error {
	var wire httpapi.EmbedRequest
	var q *graph.Graph
	var err error
	tJSON := r.stage(trace, root, "httpapi.json_decode", func() { err = json.Unmarshal(o.body, &wire) })
	if err != nil {
		return err
	}
	tML := r.stage(trace, root, "graphml.decode", func() { q, err = graphml.DecodeString(wire.QueryGraphML) })
	if err != nil {
		return err
	}
	r.ls.add("graphml.decode_us", us(tML))
	sreq := serviceRequest(&wire, q)

	var resp *service.Response
	tSingle := r.stage(trace, root, "service.embed", func() { resp, err = r.single.svc.Embed(sreq) })
	if err == nil {
		// One model always decides a planted query.
		planted := *o
		planted.expect = expectMapping
		err = checkAnswer(&planted, resp, nil)
	}
	if err != nil {
		return err
	}
	tLocal := r.stage(trace, root, "coordinator.embed_local", func() { resp, _, err = r.local.coord.Embed(sreq) })
	if err == nil {
		err = checkAnswer(o, resp, nil)
	}
	if err != nil {
		return err
	}
	var where string
	remote := r.rec.begin(trace, root, "coordinator.embed_remote")
	r.rec.setCurrent(trace, remote.Span)
	start := time.Now()
	resp, where, err = r.remote.coord.Embed(sreq)
	tRemote := time.Since(start)
	r.rec.end(remote)
	r.rec.setCurrent(trace, root)
	if err == nil {
		err = checkAnswer(o, resp, nil)
	}
	if err != nil {
		return err
	}
	r.ls.add("coordinator.single_embed_ms", ms(tSingle))
	r.ls.add("coordinator.local_embed_ms", ms(tLocal))
	r.ls.add("coordinator.remote_embed_ms", ms(tRemote))
	r.singleNs += float64(tSingle)
	r.localNs += float64(tLocal)
	if strings.HasPrefix(where, "cross:") {
		r.crossNs += float64(tRemote)
		r.crossN++
	}
	// Per probe, what crossing loopback cost beyond the shard's own
	// handler: the probe span minus the handler span it contains.
	for _, probe := range r.rec.named("shard.embed", remote.Span) {
		for _, h := range r.rec.named("shard.handler", remote.Span) {
			if h.Start >= probe.Start && h.End <= probe.End {
				r.ls.add("coordinator.remote_overhead_us", us(probe.duration()-h.duration()))
			}
		}
	}

	rr, tHandler, err := r.handlerAndLoopback(trace, root, r.handlerCluster.api, r.c.url, o, tRemote)
	if err != nil {
		return err
	}
	tEncode := r.encodeStage(trace, root, rr.Body.Bytes())
	r.layerSum(tHandler, tJSON+tML+tRemote+tEncode)
	return nil
}

// pathRequests times path-mode (§VIII link-to-path) embeddings, which
// are kept out of every timed mix: their latency is heavy-tailed enough
// (p95 in seconds) that a handful of them would own any window they
// landed in. Each search is capped, so a capped one under-reports probes.
func (r *replayer) pathRequests(deadline time.Time) {
	host, idx, v := r.a.model.AcquireIndexed()
	defer r.a.model.Release(v)
	for i := 0; i < r.sc.pathRequests && time.Now().Before(deadline); i++ {
		q, _, err := plantedQuery(host, 4, 3, r.rng)
		if err != nil {
			continue
		}
		p, err := core.NewProblem(q, host, nil, nil)
		if err != nil {
			continue
		}
		var res *core.PathResult
		d := r.stage(int64(-1-i), 0, "core.path_embed", func() {
			res = core.PathEmbed(p, core.PathOptions{MaxHops: defaultPathHops, Timeout: 200 * time.Millisecond, MaxSolutions: 1, Index: idx})
		})
		r.ls.add("core.path_embed_ms", ms(d))
		r.ls.add("core.path_witness_probes_per_op", float64(res.Stats.WitnessProbes))
	}
}
