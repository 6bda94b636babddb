// Package engine is the asynchronous embedding job engine: it sits
// between the HTTP API and the mapping service, turning blocking
// Service.Embed calls into a submit/poll/cancel job lifecycle with a
// bounded queue, a fixed worker pool, explicit backpressure, and a
// model-versioned result cache.
//
// The paper frames NETEMBED as a *service* answering mapping queries
// against a continuously re-measured hosting network; a long ECF search
// must not pin an HTTP handler goroutine, a caller that gives up must be
// able to stop the search (not just abandon it), and identical queries
// against an unchanged network snapshot should not recompute. The engine
// provides exactly that:
//
//   - Submit enqueues a job onto a bounded queue and returns immediately;
//     when the queue is full it fails fast with ErrQueueFull so the HTTP
//     layer can answer 429 instead of stacking goroutines.
//   - Jobs move queued → running → done/failed/canceled. Cancel stops a
//     queued job instantly and a running one cooperatively, via the
//     Options.Stop hook threaded through service.Request into every
//     search algorithm's deadline check.
//   - Answers are cached under (request fingerprint, model version);
//     resubmitting an identical query against the same snapshot is O(1),
//     and a monitor publish invalidates automatically because the
//     current version is part of every lookup.
//   - A periodic tick prunes expired ledger leases and sweeps
//     stale-version cache entries.
//   - Close drains gracefully: running jobs finish, queued jobs fail
//     with ErrShuttingDown, workers exit.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netembed/internal/core"
	"netembed/internal/service"
)

// State classifies a job's position in its lifecycle.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobID identifies a submitted job.
type JobID string

// Engine errors.
var (
	// ErrQueueFull is backpressure: the submission queue is at capacity.
	// HTTP maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("engine: submission queue full")
	// ErrShuttingDown rejects submissions to (and fails jobs queued in) a
	// closing engine.
	ErrShuttingDown = errors.New("engine: shutting down")
	// ErrJobNotFound reports an unknown job ID.
	ErrJobNotFound = errors.New("engine: job not found")
	// ErrJobFinished rejects canceling a job that already reached
	// done/failed.
	ErrJobFinished = errors.New("engine: job already finished")
)

// Job is one asynchronous embedding request. All exported accessors are
// safe for concurrent use.
type Job struct {
	id  JobID
	req service.Request

	cancelFlag atomic.Bool   // observed by the search's Stop hook
	done       chan struct{} // closed on the terminal transition

	// cacheKey/cacheable are fixed at submission (requestKey is pure in
	// the request), so workers never rehash the query graph.
	cacheKey  string
	cacheable bool

	mu        sync.Mutex
	state     State
	resp      *service.Response
	err       error
	fromCache bool
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Anytime incumbent of an optimizing job: the best feasible embedding
	// (by names) found so far and its objective cost, streamed in by the
	// search's OnImprove hook so GET /jobs/{id} can answer best-so-far
	// while the optimality proof is still running.
	bestSoFar service.NamedMapping
	bestCost  float64
}

// Info is an immutable snapshot of a job, safe to hand to encoders.
type Info struct {
	ID        JobID
	State     State
	FromCache bool
	Submitted time.Time
	Started   time.Time // zero until the job leaves the queue
	Finished  time.Time // zero until terminal
	Response  *service.Response
	Err       error
	// BestSoFar/BestCost carry an optimizing job's anytime incumbent: nil
	// until the search finds its first feasible embedding, then the best
	// one seen (by names) and its objective cost. Once the job is done,
	// Response is authoritative.
	BestSoFar service.NamedMapping
	BestCost  float64
}

// ID returns the job's identifier.
func (j *Job) ID() JobID { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Info snapshots the job.
func (j *Job) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Info{
		ID:        j.id,
		State:     j.state,
		FromCache: j.fromCache,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Response:  j.resp,
		Err:       j.err,
		BestSoFar: j.bestSoFar,
		BestCost:  j.bestCost,
	}
}

// noteBest records an incumbent improvement. Improvements can arrive out
// of order when ParallelECF workers race, so only a strictly better cost
// replaces the stored incumbent.
func (j *Job) noteBest(nm service.NamedMapping, cost float64) {
	j.mu.Lock()
	if j.bestSoFar == nil || cost < j.bestCost {
		j.bestSoFar, j.bestCost = nm, cost
	}
	j.mu.Unlock()
}

// finish performs the terminal transition exactly once; later calls
// (e.g. a worker completing a search that Cancel already marked
// canceled) are no-ops. It reports whether this call won.
func (j *Job) finish(state State, resp *service.Response, err error, fromCache bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.resp = resp
	j.err = err
	j.fromCache = fromCache
	j.finished = time.Now()
	close(j.done)
	return true
}

// Config tunes an Engine. The zero value gets sensible defaults.
type Config struct {
	// Workers sizes the pool draining the queue (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many jobs may wait beyond the ones running;
	// submissions past it fail with ErrQueueFull (default 128).
	QueueDepth int
	// CacheCapacity bounds the result cache entry count; negative
	// disables caching (default 512).
	CacheCapacity int
	// TickInterval paces the maintenance tick — ledger lease pruning,
	// stale-version cache sweeping, and finished-job record expiry
	// (default 1s).
	TickInterval time.Duration
	// JobRetention is how long terminal job records stay pollable before
	// the tick forgets them (default 15m).
	JobRetention time.Duration
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 512
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 15 * time.Minute
	}
}

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	Queued    int   `json:"queued"`    // jobs waiting in the queue
	Running   int   `json:"running"`   // jobs currently searching
	Submitted int64 `json:"submitted"` // accepted submissions, ever
	Completed int64 `json:"completed"` // jobs that reached done
	Failed    int64 `json:"failed"`    // jobs that reached failed
	Canceled  int64 `json:"canceled"`  // jobs that reached canceled

	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheEntries int   `json:"cacheEntries"`

	QueueFullRejections int64 `json:"queueFullRejections"`
	LeasesPruned        int64 `json:"leasesPruned"`

	// Search sums the search-effort counters of every job answered by a
	// fresh search, under the names of an /embed reply's stats object.
	// Cache hits replay a result without searching, so they add nothing.
	Search map[string]int64 `json:"search"`
}

// Engine runs embedding jobs asynchronously against a service. Safe for
// concurrent use.
type Engine struct {
	svc   *service.Service
	cfg   Config
	cache *resultCache // nil when disabled

	mu     sync.Mutex // guards closed and sends into queue vs. close(queue)
	closed bool
	queue  chan *Job
	start  sync.Once // lazily spawns workers + tick on first submission

	jobsMu sync.Mutex
	jobs   map[JobID]*Job
	nextID int64

	maintMu    sync.Mutex
	maintainer Maintainer

	workerWG sync.WaitGroup
	tickStop chan struct{}
	tickWG   sync.WaitGroup

	queuedGauge  atomic.Int64
	runningGauge atomic.Int64
	submitted    atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	canceled     atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	rejections   atomic.Int64
	leasesPruned atomic.Int64

	searchMu sync.Mutex
	search   core.Stats // counters only; guarded by searchMu
}

// New builds an engine over svc. The worker pool and maintenance tick
// start lazily on the first submission, so constructing an engine (or an
// httpapi.Server, which embeds one) costs no goroutines until it is
// actually used. Call Close to drain and stop a used engine.
func New(svc *service.Service, cfg Config) *Engine {
	cfg.applyDefaults()
	e := &Engine{
		svc:      svc,
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[JobID]*Job),
		tickStop: make(chan struct{}),
	}
	if cfg.CacheCapacity > 0 {
		e.cache = newResultCache(cfg.CacheCapacity)
	}
	return e
}

// ensureStarted spawns the worker pool and the maintenance tick exactly
// once. The spawned goroutines take e.mu only transiently per job, so
// calling this while holding e.mu is safe.
func (e *Engine) ensureStarted() {
	e.start.Do(func() {
		for i := 0; i < e.cfg.Workers; i++ {
			e.workerWG.Add(1)
			go e.worker()
		}
		e.tickWG.Add(1)
		go e.tick()
	})
}

// Service exposes the underlying mapping service.
func (e *Engine) Service() *service.Service { return e.svc }

// Submit validates and enqueues a request, returning the job handle
// immediately. A cache hit completes the job synchronously (state done,
// FromCache true) without consuming a queue slot. A full queue fails
// with ErrQueueFull; a closing engine with ErrShuttingDown.
func (e *Engine) Submit(req service.Request) (*Job, error) {
	if req.Query == nil {
		return nil, service.ErrNoQuery
	}
	job := &Job{
		req:       req,
		state:     StateQueued,
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	if e.cache != nil {
		job.cacheKey, job.cacheable = requestKey(req)
	}

	// Cache fast path: answered in O(1), never touches the queue. The
	// closed check comes first so a drained engine refuses even cached
	// submissions, as Close documents.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrShuttingDown
	}
	e.ensureStarted()
	if job.cacheable {
		if resp, ok := e.cache.get(job.cacheKey, e.svc.Model().Version()); ok {
			e.mu.Unlock()
			e.register(job)
			e.submitted.Add(1)
			e.cacheHits.Add(1)
			job.finish(StateDone, resp, nil, true)
			e.completed.Add(1)
			return job, nil
		}
	}
	// Bump the gauge before the send: the worker's decrement strictly
	// follows its receive, so the gauge can never dip negative.
	e.queuedGauge.Add(1)
	select {
	case e.queue <- job:
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		e.queuedGauge.Add(-1)
		e.rejections.Add(1)
		return nil, ErrQueueFull
	}
	e.register(job)
	e.submitted.Add(1)
	return job, nil
}

// SubmitWait is the synchronous façade the /embed endpoint keeps: submit,
// then wait for the terminal state or ctx expiry. A ctx cancellation
// cancels the job (stopping its search) before returning.
func (e *Engine) SubmitWait(ctx context.Context, req service.Request) (*service.Response, error) {
	job, err := e.Submit(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		_, _ = e.Cancel(job.ID())
		return nil, ctx.Err()
	}
	info := job.Info()
	switch info.State {
	case StateDone:
		return info.Response, nil
	case StateCanceled:
		return nil, fmt.Errorf("engine: job %s canceled", job.ID())
	default:
		return nil, info.Err
	}
}

// Job returns the handle for an ID.
func (e *Engine) Job(id JobID) (*Job, bool) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel stops a job: a queued job transitions to canceled immediately
// (the worker later skips it), a running one has its Stop hook flipped so
// the search halts at the next deadline check — well before any
// wall-clock timeout — and is marked canceled right away. Canceling an
// already-canceled job is an idempotent success; a done or failed job
// returns ErrJobFinished.
func (e *Engine) Cancel(id JobID) (Info, error) {
	job, ok := e.Job(id)
	if !ok {
		return Info{}, ErrJobNotFound
	}
	job.cancelFlag.Store(true)
	if job.finish(StateCanceled, nil, fmt.Errorf("engine: job %s canceled", id), false) {
		e.canceled.Add(1)
		return job.Info(), nil
	}
	info := job.Info()
	if info.State == StateCanceled {
		return info, nil
	}
	return info, ErrJobFinished
}

// Wait blocks until the job is terminal or ctx expires, returning the
// final snapshot.
func (e *Engine) Wait(ctx context.Context, id JobID) (Info, error) {
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

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Queued:              int(e.queuedGauge.Load()),
		Running:             int(e.runningGauge.Load()),
		Submitted:           e.submitted.Load(),
		Completed:           e.completed.Load(),
		Failed:              e.failed.Load(),
		Canceled:            e.canceled.Load(),
		CacheHits:           e.cacheHits.Load(),
		CacheMisses:         e.cacheMisses.Load(),
		CacheEntries:        e.cache.len(),
		QueueFullRejections: e.rejections.Load(),
		LeasesPruned:        e.leasesPruned.Load(),
		Search:              e.searchCounters(),
	}
}

// searchCounters snapshots the cumulative search counters by name.
func (e *Engine) searchCounters() map[string]int64 {
	e.searchMu.Lock()
	counters := e.search.Counters()
	e.searchMu.Unlock()
	out := make(map[string]int64, len(counters))
	for _, c := range counters {
		out[c.Name] = c.Value
	}
	return out
}

// Close drains the engine: no new submissions are accepted, jobs still in
// the queue fail with ErrShuttingDown, running searches are left to
// finish, and the worker pool plus the maintenance tick are joined. The
// ctx bounds how long to wait for running jobs; on expiry their Stop
// hooks are flipped so they wind down soon after, and ctx.Err() is
// returned.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.queue) // workers drain the remainder, failing each job
	e.mu.Unlock()

	close(e.tickStop)
	e.tickWG.Wait()

	workersDone := make(chan struct{})
	go func() {
		e.workerWG.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		return nil
	case <-ctx.Done():
		// Give up on graceful: cancel whatever is still running.
		e.jobsMu.Lock()
		for _, j := range e.jobs {
			j.cancelFlag.Store(true)
		}
		e.jobsMu.Unlock()
		<-workersDone
		return ctx.Err()
	}
}

func (e *Engine) register(job *Job) {
	e.jobsMu.Lock()
	e.nextID++
	job.id = JobID(strconv.FormatInt(e.nextID, 10))
	e.jobs[job.id] = job
	e.jobsMu.Unlock()
}

// worker drains the queue until it is closed; after Close the remaining
// queued jobs are failed instead of run.
func (e *Engine) worker() {
	defer e.workerWG.Done()
	for job := range e.queue {
		e.queuedGauge.Add(-1)
		e.mu.Lock()
		draining := e.closed
		e.mu.Unlock()
		if draining {
			if job.finish(StateFailed, nil, ErrShuttingDown, false) {
				e.failed.Add(1)
			}
			continue
		}
		e.run(job)
	}
}

// run executes one job: re-check cancellation and the cache, then search
// with the job's Stop hook threaded through the request. Fresh answers
// add their effort counters to the engine's cumulative totals.
func (e *Engine) run(job *Job) {
	if job.cancelFlag.Load() {
		// Canceled while queued; Cancel normally finished it already, but
		// settle it regardless so no waiter can hang on the done channel.
		if job.finish(StateCanceled, nil, fmt.Errorf("engine: job %s canceled", job.id), false) {
			e.canceled.Add(1)
		}
		return
	}
	if job.cacheable {
		// Second look: an identical job may have completed, or the model
		// may have changed, since submission.
		if resp, ok := e.cache.get(job.cacheKey, e.svc.Model().Version()); ok {
			if job.finish(StateDone, resp, nil, true) {
				e.cacheHits.Add(1)
				e.completed.Add(1)
			}
			return
		}
		e.cacheMisses.Add(1)
	}

	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()
	e.runningGauge.Add(1)
	defer e.runningGauge.Add(-1)

	req := job.req
	prevStop := req.Stop
	req.Stop = func() bool {
		return job.cancelFlag.Load() || (prevStop != nil && prevStop())
	}
	if req.Optimize && req.Objective.Enabled() {
		// Anytime hook, injected here — after the cache key was fixed at
		// Submit, exactly like the Stop wrap above — so polling a running
		// optimize job surfaces its best incumbent.
		prevImprove := req.OnImprove
		req.OnImprove = func(nm service.NamedMapping, cost float64) {
			job.noteBest(nm, cost)
			if prevImprove != nil {
				prevImprove(nm, cost)
			}
		}
	}

	resp, err := e.svc.Embed(req)
	switch {
	case job.cancelFlag.Load():
		// Usually Cancel already marked the job; Close's ctx-expiry path
		// flips the flag without finishing, so settle it here too —
		// otherwise the done channel never closes and waiters hang.
		if job.finish(StateCanceled, nil, fmt.Errorf("engine: job %s canceled", job.id), false) {
			e.canceled.Add(1)
		}
	case err != nil:
		if job.finish(StateFailed, nil, err, false) {
			e.failed.Add(1)
		}
	default:
		e.searchMu.Lock()
		e.search.Add(&resp.Stats)
		e.searchMu.Unlock()
		if job.cacheable && cacheableResponse(req, resp) {
			e.cache.put(job.cacheKey, resp.ModelVersion, resp)
		}
		if job.finish(StateDone, resp, nil, false) {
			e.completed.Add(1)
		}
	}
}

// cacheableResponse decides whether an answer is deterministic enough to
// replay: complete enumerations always are, and partial ones only when
// they were truncated by the request's own MaxResults quota. Timeout
// truncation depends on machine load at run time, so replaying it would
// freeze a transiently bad answer until the next model publish.
func cacheableResponse(req service.Request, resp *service.Response) bool {
	switch resp.Status {
	case core.StatusComplete:
		return true
	case core.StatusPartial:
		return req.MaxResults > 0 && len(resp.Mappings) >= req.MaxResults
	default:
		return false
	}
}

// Maintainer receives the engine's periodic maintenance tick after the
// engine's own housekeeping ran: the ledger's clock reading for the
// round and the lease IDs the expiry sweep just removed. The embedding
// lifecycle manager hooks in here — expired leases flip their owning
// embeddings to Expired immediately, and the health/repair pass paces
// itself off the tick. Implementations must be safe for concurrent use
// with the rest of their own API; the engine calls them from its tick
// goroutine only.
type Maintainer interface {
	Maintain(now time.Time, prunedLeases []service.LeaseID)
}

// SetMaintainer attaches (or, with nil, detaches) the maintenance hook.
// Safe to call on a live engine; the next tick observes the change.
func (e *Engine) SetMaintainer(m Maintainer) {
	e.maintMu.Lock()
	e.maintainer = m
	e.maintMu.Unlock()
}

func (e *Engine) currentMaintainer() Maintainer {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.maintainer
}

// tick runs the periodic maintenance: prune expired ledger leases, sweep
// cache entries stranded on stale model versions, and hand the round to
// the attached Maintainer (the embedding lifecycle manager) with the
// pruned lease IDs.
func (e *Engine) tick() {
	defer e.tickWG.Done()
	ticker := time.NewTicker(e.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.tickStop:
			return
		case <-ticker.C:
			led := e.svc.Ledger()
			now := led.Now()
			pruned := led.Prune(now)
			e.leasesPruned.Add(int64(len(pruned)))
			e.cache.sweep(e.svc.Model().Version())
			e.expireJobs(time.Now())
			if m := e.currentMaintainer(); m != nil {
				m.Maintain(now, pruned)
			}
		}
	}
}

// expireJobs forgets terminal job records older than the retention
// window so the ID index stays bounded on a long-running daemon.
func (e *Engine) expireJobs(now time.Time) {
	cutoff := now.Add(-e.cfg.JobRetention)
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	for id, j := range e.jobs {
		info := j.Info()
		if info.State.Terminal() && info.Finished.Before(cutoff) {
			delete(e.jobs, id)
		}
	}
}
