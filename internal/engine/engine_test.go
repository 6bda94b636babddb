package engine

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// hardHost returns K_n minus a matching covering every vertex: embedding
// K_{n-2} into it is infeasible but the search space is astronomically
// large, so a job over it runs until canceled (or its generous timeout).
// Memory stays flat because no solutions accumulate.
func hardHost(n int) *graph.Graph {
	g := graph.NewUndirected()
	g.AddNodes(n)
	skip := make(map[[2]int]bool)
	for i := 0; i+1 < n; i += 2 {
		skip[[2]int{i, i + 1}] = true
	}
	if n%2 == 1 {
		skip[[2]int{n - 2, n - 1}] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if skip[[2]int{i, j}] {
				continue
			}
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), nil)
		}
	}
	return g
}

// publish moves svc's model to a new version with an attribute-only delta.
func publish(t *testing.T, svc *service.Service) {
	t.Helper()
	m := svc.Model()
	if _, err := m.Apply(&graph.Delta{SetNodeAttrs: []graph.NodeAttrUpdate{{
		Node: "n0", Set: graph.Attrs{}.SetNum("epoch", float64(m.Version())),
	}}}); err != nil {
		t.Fatal(err)
	}
}

func newTestEngine(t testing.TB, cfg Config) (*Engine, *service.Service) {
	t.Helper()
	svc := service.New(service.NewModel(hardHost(26)), service.Config{})
	e := New(svc, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = e.Close(ctx)
	})
	return e, svc
}

// slowRequest is a job that cannot finish inside the test: an infeasible
// clique embedding with a deliberately huge search space and a 60s
// timeout. Only cancellation (or engine teardown) ends it early.
func slowRequest() service.Request {
	return service.Request{Query: topo.Clique(14), Timeout: 60 * time.Second}
}

// fastRequest finishes in microseconds: a single edge into a dense host,
// first match only. Seed differentiates cache fingerprints.
func fastRequest(seed int64) service.Request {
	return service.Request{Query: topo.Line(2), MaxResults: 1, Seed: seed}
}

func waitState(t *testing.T, job *Job, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if job.Info().State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (stuck at %s)", job.ID(), want, job.Info().State)
}

// waitJob blocks until the registered job is terminal or ctx expires,
// returning its final snapshot.
func waitJob(ctx context.Context, e *Engine, id JobID) (Info, error) {
	job, ok := e.Job(id)
	if !ok {
		return Info{}, ErrJobNotFound
	}
	select {
	case <-job.Done():
		return job.Info(), nil
	case <-ctx.Done():
		return job.Info(), ctx.Err()
	}
}

// waitStats polls Stats until ok accepts them.
func waitStats(t *testing.T, e *Engine, within time.Duration, ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for s := e.Stats(); !ok(s); s = e.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitCompletes(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 2})
	job, err := e.Submit(fastRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	info, err := waitJob(context.Background(), e, job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("state %s, want done (err: %v)", info.State, info.Err)
	}
	if info.Response == nil || len(info.Response.Mappings) != 1 {
		t.Fatalf("expected one mapping, got %+v", info.Response)
	}
	if info.FromCache {
		t.Fatal("first run of a query must not be a cache hit")
	}
}

func TestSubmitValidates(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Submit(service.Request{}); !errors.Is(err, service.ErrNoQuery) {
		t.Fatalf("nil query: got %v, want ErrNoQuery", err)
	}
	job, err := e.Submit(service.Request{Query: topo.Line(2), Algorithm: "no-such-algo"})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := waitJob(context.Background(), e, job.ID())
	if info.State != StateFailed || !errors.Is(info.Err, service.ErrUnknownAlgorithm) {
		t.Fatalf("bad algorithm: state %s err %v, want failed ErrUnknownAlgorithm", info.State, info.Err)
	}
	if s := e.Stats(); s.Failed != 1 {
		t.Fatalf("failed counter %d, want 1", s.Failed)
	}
}

// TestStatsCountJobsBeforeWaitReturns: a job's terminal counter is bumped
// before its done channel closes, so Stats read right after Wait already
// counts it. Failing and succeeding jobs alternate; every request has its
// own fingerprint, so each one runs on a worker rather than in Submit.
func TestStatsCountJobsBeforeWaitReturns(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 2})
	var failed, completed int64
	for i := 0; i < 1000; i++ {
		req, want := fastRequest(int64(i)), StateDone
		if i%2 == 1 {
			req.Algorithm, want = "no-such-algo", StateFailed
		}
		job, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		info, err := waitJob(context.Background(), e, job.ID())
		if err != nil || info.State != want {
			t.Fatalf("job %d: state %s err %v, want %s", i, info.State, err, want)
		}
		if want == StateFailed {
			failed++
		} else {
			completed++
		}
		if s := e.Stats(); s.Failed != failed || s.Completed != completed {
			t.Fatalf("after job %d: failed %d completed %d, want %d and %d", i, s.Failed, s.Completed, failed, completed)
		}
	}
}

// TestCancelRunningStopsSearch is the acceptance-criterion test: cancel
// a running job and require the worker to actually stop searching well
// before the job's 60s timeout, not merely mark the record canceled.
func TestCancelRunningStopsSearch(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1})
	job, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning, 10*time.Second)

	canceledAt := time.Now()
	info, err := e.Cancel(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCanceled {
		t.Fatalf("cancel returned state %s, want canceled", info.State)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Second):
		t.Fatal("Done channel not closed after cancel")
	}

	// The worker must observably stop: the running gauge drains long
	// before the 60s search timeout could fire.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("search still running %v after cancel; cancellation did not reach the search", time.Since(canceledAt))
		}
		time.Sleep(time.Millisecond)
	}
	if stopped := time.Since(canceledAt); stopped > 10*time.Second {
		t.Fatalf("search took %v to stop after cancel", stopped)
	}
	if s := e.Stats(); s.Canceled != 1 {
		t.Fatalf("canceled counter %d, want 1", s.Canceled)
	}
	// Canceling again is idempotent; a finished job is not cancelable.
	if _, err := e.Cancel(job.ID()); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
}

func TestCancelQueued(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1, QueueDepth: 4})
	blocker, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 10*time.Second)

	queued, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	if got := queued.Info().State; got != StateQueued {
		t.Fatalf("second job state %s, want queued behind the single worker", got)
	}
	if info, err := e.Cancel(queued.ID()); err != nil || info.State != StateCanceled {
		t.Fatalf("cancel queued: state %v err %v", info.State, err)
	}
	if _, err := e.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cancel("no-such-job"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown id: got %v, want ErrJobNotFound", err)
	}
}

// TestQueueFullBackpressure fills the single-slot queue behind a stuck
// worker and checks the engine refuses — not blocks — the overflow.
func TestQueueFullBackpressure(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	running, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 10*time.Second)
	queued, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(slowRequest()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}
	if s := e.Stats(); s.QueueFullRejections != 1 || s.Queued != 1 || s.Running != 1 {
		t.Fatalf("stats after overflow: %+v", s)
	}
	_, _ = e.Cancel(queued.ID())
	_, _ = e.Cancel(running.ID())
}

// TestCacheHitAndModelInvalidation pins the cache contract: an identical
// resubmission at the same model version is served from cache without a
// search, and a model publish invalidates it.
func TestCacheHitAndModelInvalidation(t *testing.T) {
	e, svc := newTestEngine(t, Config{Workers: 2})
	ctx := context.Background()

	job1, err := e.Submit(fastRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	info1, _ := waitJob(ctx, e, job1.ID())
	if info1.State != StateDone || info1.FromCache {
		t.Fatalf("first run: state %s fromCache %v", info1.State, info1.FromCache)
	}

	// Identical query, same model version: O(1) cache hit — the job is
	// done at submission, never queued.
	job2, err := e.Submit(fastRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if info2 := job2.Info(); info2.State != StateDone || !info2.FromCache {
		t.Fatalf("resubmission: state %s fromCache %v, want instant cache hit", info2.State, info2.FromCache)
	}
	if job2.Info().Response != info1.Response {
		t.Fatal("cache hit did not reuse the stored response")
	}
	if s := e.Stats(); s.CacheHits != 1 {
		t.Fatalf("cacheHits %d, want 1", s.CacheHits)
	}

	// A different request is its own cache line.
	job3, err := e.Submit(fastRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if info3, _ := waitJob(ctx, e, job3.ID()); info3.FromCache {
		t.Fatal("distinct request wrongly served from cache")
	}

	// Monitors publish a new snapshot: the old answer must not be reused.
	publish(t, svc)
	job4, err := e.Submit(fastRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	info4, _ := waitJob(ctx, e, job4.ID())
	if info4.State != StateDone || info4.FromCache {
		t.Fatalf("post-update: state %s fromCache %v, want fresh search", info4.State, info4.FromCache)
	}
	if info4.Response.ModelVersion == info1.Response.ModelVersion {
		t.Fatal("post-update answer carries the stale model version")
	}
}

// TestAllowSetsNeverShareACacheEntry: two requests differing only in
// their allow-set get their own searches and their own (different)
// answers; the same set listed in another order hits the first's entry.
func TestAllowSetsNeverShareACacheEntry(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 2})
	ctx := context.Background()
	run := func(allow map[string][]string) Info {
		req := fastRequest(7)
		req.Allow = allow
		job, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := waitJob(ctx, e, job.ID())
		if info.State != StateDone || len(info.Response.Named) == 0 {
			t.Fatalf("allow %v: state %s, %d mappings", allow, info.State, len(info.Response.Named))
		}
		return info
	}
	free := run(nil)
	a := run(map[string][]string{"n0": {"n4", "n5"}})
	b := run(map[string][]string{"n0": {"n6", "n7"}})
	if free.FromCache || a.FromCache || b.FromCache {
		t.Fatalf("requests differing in Allow shared an entry: %v %v %v", free.FromCache, a.FromCache, b.FromCache)
	}
	for _, m := range a.Response.Named {
		if h := m["n0"]; h != "n4" && h != "n5" {
			t.Errorf("n0 mapped to %s outside its allow-set {n4 n5}", h)
		}
	}
	for _, m := range b.Response.Named {
		if h := m["n0"]; h != "n6" && h != "n7" {
			t.Errorf("n0 mapped to %s outside its allow-set {n6 n7}", h)
		}
	}
	if again := run(map[string][]string{"n0": {"n5", "n4"}}); !again.FromCache {
		t.Error("the same allow-set in another order missed the cache")
	}
}

// TestExcludeReservedNotCached pins that ledger-dependent requests
// bypass the cache: their answers change without a model version bump.
func TestExcludeReservedNotCached(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1})
	req := fastRequest(3)
	req.ExcludeReserved = true
	for i := 0; i < 2; i++ {
		job, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := waitJob(context.Background(), e, job.ID())
		if info.State != StateDone || info.FromCache {
			t.Fatalf("run %d: state %s fromCache %v, want fresh", i, info.State, info.FromCache)
		}
	}
	if s := e.Stats(); s.CacheHits != 0 || s.CacheEntries != 0 {
		t.Fatalf("ExcludeReserved leaked into the cache: %+v", s)
	}
}

// TestSubmissionStorm hammers the engine from many goroutines — mixed
// fast jobs and mid-flight cancellations — and checks every job reaches
// a terminal state with consistent counters. Run under -race this is the
// engine's concurrency test.
func TestSubmissionStorm(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 4, QueueDepth: 256, CacheCapacity: -1})
	const clients, perClient = 8, 10

	var wg sync.WaitGroup
	jobs := make(chan *Job, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := int64(c*perClient + i)
				job, err := e.Submit(fastRequest(seed))
				if errors.Is(err, ErrQueueFull) {
					continue // backpressure is a legal storm outcome
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if seed%3 == 0 {
					_, _ = e.Cancel(job.ID()) // races the worker on purpose
				}
				jobs <- job
			}
		}(c)
	}
	wg.Wait()
	close(jobs)

	total := 0
	for job := range jobs {
		total++
		info, err := waitJob(context.Background(), e, job.ID())
		if err != nil {
			t.Fatal(err)
		}
		switch info.State {
		case StateDone, StateCanceled:
		default:
			t.Fatalf("job %s ended %s (err %v)", info.ID, info.State, info.Err)
		}
	}
	s := e.Stats()
	if s.Submitted != int64(total) {
		t.Fatalf("submitted counter %d, want %d", s.Submitted, total)
	}
	if s.Completed+s.Canceled != int64(total) {
		t.Fatalf("terminal counters %d+%d don't cover %d jobs", s.Completed, s.Canceled, total)
	}
	// Jobs canceled while queued still occupy their slot until a worker
	// pops and skips them, so give the gauges a moment to drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s = e.Stats()
		if s.Queued == 0 && s.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges not drained: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDrains pins graceful shutdown: the running job finishes on
// its own terms (here: canceled to end it), queued jobs fail with
// ErrShuttingDown, and new submissions are refused.
func TestCloseDrains(t *testing.T) {
	svc := service.New(service.NewModel(hardHost(26)), service.Config{})
	e := New(svc, Config{Workers: 1, QueueDepth: 4})

	// Warm the cache so the post-close refusal below also proves a
	// cached answer does not sneak past a drained engine.
	warm, err := e.Submit(fastRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := waitJob(context.Background(), e, warm.ID()); info.State != StateDone {
		t.Fatalf("warm job: %s", info.State)
	}

	running, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 10*time.Second)
	queued, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		closed <- e.Close(ctx)
	}()

	// Once Close has taken effect, new submissions are refused.
	refusedBy := time.Now().Add(10 * time.Second)
	for {
		_, err := e.Submit(fastRequest(1))
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if time.Now().After(refusedBy) {
			t.Fatalf("submit after close: got %v, want ErrShuttingDown", err)
		}
		time.Sleep(time.Millisecond)
	}

	// End the running job; the drained worker must then fail the queued
	// one with ErrShuttingDown instead of running it.
	_, _ = e.Cancel(running.ID())
	info, err := waitJob(context.Background(), e, queued.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateFailed || !errors.Is(info.Err, ErrShuttingDown) {
		t.Fatalf("queued job under shutdown: state %s err %v", info.State, info.Err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestNeverStartedCloseIsClean pins the lazy-start contract: an engine
// that never saw a submission has no goroutines, and Close is an
// instant, clean no-op that still locks out later submissions.
func TestNeverStartedCloseIsClean(t *testing.T) {
	svc := service.New(service.NewModel(hardHost(26)), service.Config{})
	e := New(svc, Config{})
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close of unused engine: %v", err)
	}
	if _, err := e.Submit(fastRequest(1)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after close: got %v, want ErrShuttingDown", err)
	}
}

// TestTimeoutTruncatedNotCached pins that answers cut short by the
// wall-clock timeout — a load-dependent, nondeterministic truncation —
// are never replayed from the cache.
func TestTimeoutTruncatedNotCached(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1})
	req := slowRequest()
	req.Timeout = 100 * time.Millisecond
	for i := 0; i < 2; i++ {
		job, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		info, err := waitJob(context.Background(), e, job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateDone || info.FromCache {
			t.Fatalf("run %d: state %s fromCache %v, want fresh timed-out run", i, info.State, info.FromCache)
		}
	}
	if s := e.Stats(); s.CacheEntries != 0 || s.CacheHits != 0 {
		t.Fatalf("timeout-truncated answer leaked into the cache: %+v", s)
	}
}

// TestTickPrunesLedgerAndCache wires a fast tick and checks both
// maintenance duties: expired leases vanish and stale-version cache
// entries are swept once the model moves on.
func TestTickPrunesLedgerAndCache(t *testing.T) {
	e, svc := newTestEngine(t, Config{Workers: 1, TickInterval: 5 * time.Millisecond})

	// An already-expired windowed lease.
	start := time.Now().Add(-time.Hour)
	if _, err := svc.Ledger().AllocateWindow(core.Mapping{0}, start, start.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// A cached answer at the current version.
	job, err := e.Submit(fastRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := waitJob(context.Background(), e, job.ID()); info.State != StateDone {
		t.Fatalf("seed job: %s", info.State)
	}
	publish(t, svc) // strands the cache entry

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := e.Stats()
		if s.LeasesPruned >= 1 && s.CacheEntries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tick never cleaned up: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsAccumulateSearchCounters pins that every fresh search adds
// each of its effort counters to the engine's cumulative /stats search
// totals, under the reply's counter names, and that cache hits add
// nothing.
func TestStatsAccumulateSearchCounters(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 4})
	want := map[string]int64{}
	reqs := []service.Request{fastRequest(7)}
	for _, algo := range []service.Algorithm{service.AlgoRWB, service.AlgoLNS, service.AlgoParallelECF} {
		req := fastRequest(7)
		req.Algorithm = algo
		reqs = append(reqs, req)
	}
	opt := fastRequest(7)
	opt.Optimize, opt.Objective = true, core.Objective{Kind: core.ObjectiveLoadBalance}
	reqs = append(reqs, opt)
	// Submitted together, so the workers add to the totals concurrently.
	var jobs []*Job
	for _, req := range reqs {
		job, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		info, err := waitJob(context.Background(), e, job.ID())
		if err != nil || info.State != StateDone {
			t.Fatalf("job %s: %s %v", job.ID(), info.State, err)
		}
		for _, c := range info.Response.Stats.Counters() {
			want[c.Name] += c.Value
		}
	}
	st := e.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("%d of the distinct requests answered from the cache, want fresh searches", st.CacheHits)
	}
	if len(st.Search) != len(want) {
		t.Errorf("/stats search has %d counters, the replies %d", len(st.Search), len(want))
	}
	for name, v := range want {
		if got, ok := st.Search[name]; !ok || got != v {
			t.Errorf("/stats search %s = %d (present %v), want the replies' sum %d", name, got, ok, v)
		}
	}
	if st.Search["pruneOps"] == 0 {
		t.Errorf("search pruneOps = 0 after completed searches, want > 0")
	}
	// A cache-served replay must not inflate the counters.
	if _, err := e.SubmitWait(context.Background(), reqs[0]); err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.CacheHits == 0 {
		t.Fatalf("expected the identical resubmission to hit the cache")
	}
	if !maps.Equal(st2.Search, st.Search) {
		t.Errorf("cache hit changed the search counters: %v -> %v", st.Search, st2.Search)
	}
}

// TestDoCanceledWhileWaiting: a blocking request whose ctx ends while it
// waits for a slot leaves the FIFO at once, ends canceled with ctx's
// error, and never searches.
func TestDoCanceledWhileWaiting(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1, QueueDepth: 4})
	running, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 10*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		info Info
		err  error
	}
	done := make(chan result, 1)
	go func() {
		info, err := e.Do(ctx, fastRequest(1))
		done <- result{info, err}
	}()
	waitStats(t, e, 10*time.Second, func(s Stats) bool { return s.Queued == 1 })
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) || r.info.State != StateCanceled || !r.info.Started.IsZero() {
			t.Fatalf("Do: state %s started %v err %v, want canceled before starting with context.Canceled", r.info.State, r.info.Started, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do still waiting after its ctx was canceled")
	}
	if s := e.Stats(); s.Queued != 0 || s.Canceled != 1 || s.Running != 1 {
		t.Fatalf("stats after the waiter left: %+v", s)
	}
	_, _ = e.Cancel(running.ID())
}

// TestCloseFailsWaitingDo: Close wakes a blocking request waiting for a
// slot with ErrShuttingDown.
func TestCloseFailsWaitingDo(t *testing.T) {
	svc := service.New(service.NewModel(hardHost(26)), service.Config{})
	e := New(svc, Config{Workers: 1, QueueDepth: 4})
	running, err := e.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 10*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), fastRequest(1))
		done <- err
	}()
	waitStats(t, e, 10*time.Second, func(s Stats) bool { return s.Queued == 1 })

	closed := make(chan error, 1)
	go func() { closed <- e.Close(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("waiting Do under Close: %v, want ErrShuttingDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the waiting Do")
	}
	_, _ = e.Cancel(running.ID())
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if s := e.Stats(); s.Failed != 1 || s.Queued != 0 || s.Running != 0 {
		t.Fatalf("stats after close: %+v", s)
	}
}

// TestCloseStopsRunningBlockingSearch: a blocking search still running
// when Close's ctx expires is stopped, and SubmitWait returns soon after
// the expiry instead of at the search's 60s timeout.
func TestCloseStopsRunningBlockingSearch(t *testing.T) {
	svc := service.New(service.NewModel(hardHost(26)), service.Config{})
	e := New(svc, Config{Workers: 1})
	returned := make(chan error, 1)
	go func() {
		_, err := e.SubmitWait(context.Background(), slowRequest())
		returned <- err
	}()
	waitStats(t, e, 10*time.Second, func(s Stats) bool { return s.Running == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close: %v, want context.DeadlineExceeded", err)
	}
	expired := time.Now()
	select {
	case err := <-returned:
		if err == nil {
			t.Fatal("SubmitWait answered a search Close stopped")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitWait still running 5s after Close's ctx expired")
	}
	if waited := time.Since(expired); waited > 5*time.Second {
		t.Fatalf("SubmitWait returned %v after the expiry", waited)
	}
	if s := e.Stats(); s.Canceled != 1 || s.Running != 0 {
		t.Fatalf("stats after the aborted drain: %+v", s)
	}
}

// TestHoldSharesTheSlots: a Hold operation takes a slot like a Do
// request, so a Do waits behind it and a further Hold is refused once
// the FIFO is full. Close fails the waiter and, once its ctx expires,
// fires the running operation's stop hook.
func TestHoldSharesTheSlots(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	running := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		err := e.Hold(context.Background(), func(stop func() bool) {
			close(running)
			for !stop() {
				time.Sleep(time.Millisecond)
			}
			close(stopped)
		})
		if err != nil {
			t.Errorf("Hold: %v", err)
		}
	}()
	<-running

	doErr := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), fastRequest(1))
		doErr <- err
	}()
	waitStats(t, e, 5*time.Second, func(s Stats) bool { return s.Running == 1 && s.Queued == 1 })
	if err := e.Hold(context.Background(), func(func() bool) { t.Error("ran past a full FIFO") }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Hold with the slot and FIFO full: %v, want ErrQueueFull", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close: %v, want the drain deadline", err)
	}
	if err := <-doErr; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("waiting Do: %v, want ErrShuttingDown", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Close's abort never reached the running operation's stop hook")
	}
}
