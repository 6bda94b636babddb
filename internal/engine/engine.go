// Package engine admits embedding requests between the HTTP API and the
// mapping service. The paper frames NETEMBED as a *service* answering
// mapping queries against a continuously re-measured hosting network: the
// server must bound how many searches run at once, a caller that gives
// up must be able to stop its search (not just abandon it), and identical
// queries against an unchanged snapshot should not recompute. So:
//
//   - Every search the HTTP API runs holds one of Config.Workers slots:
//     a cache hit answers at once, a free slot runs the request, else it
//     waits in FIFO order behind fewer than Config.QueueDepth others, and
//     past that fails fast with ErrQueueFull (HTTP 429).
//   - Do runs a blocking request on the caller's goroutine; its ctx is its
//     cancellation, and no record of it is kept. Hold runs a multi-search
//     operation (a batch, a negotiation, a schedule scan, a placement)
//     the same way. Submit registers a job that runs on a goroutine of
//     its own, moves queued → running → done/failed/canceled, and is
//     canceled by ID. Either way cancellation reaches the search through
//     the Options.Stop hook every algorithm polls.
//   - Answers are cached under (request fingerprint, model version), so
//     a monitor publish invalidates every entry at once.
//   - A periodic tick prunes expired ledger leases, sweeps stale-version
//     cache entries and forgets old finished job records.
//   - Close fails the waiters with ErrShuttingDown and lets running
//     searches finish.
package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
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
	// ErrQueueFull is backpressure: every slot is held and QueueDepth
	// requests already wait. HTTP maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("engine: submission queue full")
	// ErrShuttingDown rejects submissions to (and fails jobs queued in) a
	// closing engine.
	ErrShuttingDown = errors.New("engine: shutting down")
	// ErrJobNotFound reports an unknown job ID.
	ErrJobNotFound = errors.New("engine: job not found")
	// ErrJobFinished rejects canceling a job that already reached
	// done/failed.
	ErrJobFinished = errors.New("engine: job already finished")
	// ErrCanceled is a canceled job's error: Cancel, the caller's ctx,
	// Close's expired ctx or the request's own Stop hook stopped it.
	ErrCanceled = errors.New("engine: canceled")
)

// Job is one admitted request or Hold operation from admission to its
// terminal state. Submit registers it under an ID; Do and Hold keep it
// to themselves. All exported accessors are safe for concurrent use.
type Job struct {
	id  JobID // empty unless registered by Submit
	req service.Request
	// ctx is a blocking caller's context (nil for Submit): once it is
	// done the search stops and the job ends canceled.
	ctx context.Context
	op  func(stop func() bool) // a Hold operation, run instead of req

	cancelFlag atomic.Bool   // observed by the search's Stop hook
	done       chan struct{} // closed on the terminal transition

	// ready is made when the job joins Engine.waiters; whoever removes it
	// from there closes ready, after setting granted if it hands over a
	// slot. Both are written under Engine.mu.
	ready   chan struct{}
	granted bool

	// cacheKey/cacheable are fixed at admission (requestKey is pure in
	// the request), so run never rehashes the query graph.
	cacheKey  string
	cacheable bool

	mu   sync.Mutex
	info Info // all but ID
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
	// one seen (by names) and its objective cost, streamed in by the
	// search's OnImprove hook so GET /jobs/{id} can answer best-so-far
	// while the optimality proof is still running. Once the job is done,
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
	info := j.info
	j.mu.Unlock()
	info.ID = j.id
	return info
}

// noteBest records an incumbent improvement. Improvements can arrive out
// of order when ParallelECF workers race, so only a strictly better cost
// replaces the stored incumbent.
func (j *Job) noteBest(nm service.NamedMapping, cost float64) {
	j.mu.Lock()
	if j.info.BestSoFar == nil || cost < j.info.BestCost {
		j.info.BestSoFar, j.info.BestCost = nm, cost
	}
	j.mu.Unlock()
}

// finish performs the terminal transition to to's state, answer and
// error exactly once; later calls (e.g. run completing a search that
// Cancel already marked canceled) are no-ops. It reports whether this
// call won. The winner bumps the engine counter it is given before it
// closes done, so a caller woken by Done reads Stats with the job counted.
func (j *Job) finish(to Info, counter *atomic.Int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.State.Terminal() {
		return false
	}
	j.info.State, j.info.Response, j.info.Err, j.info.FromCache = to.State, to.Response, to.Err, to.FromCache
	j.info.Finished = time.Now()
	counter.Add(1)
	close(j.done)
	return true
}

// Config tunes an Engine. The zero value gets sensible defaults.
type Config struct {
	// Workers is how many searches run at once: the number of slots
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many requests may wait for a slot; admissions
	// past it fail with ErrQueueFull (default 128).
	QueueDepth int
	// CacheCapacity bounds the result cache entry count; negative
	// disables caching (default 512).
	CacheCapacity int
	// TickInterval paces the maintenance tick — ledger lease pruning,
	// stale-version cache sweeping, and expiry of finished Submit job
	// records (default 1s).
	TickInterval time.Duration
	// JobRetention is how long terminal Submit job records stay pollable
	// before the tick forgets them (default 15m).
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

// Stats is a point-in-time snapshot of the engine counters. An operation
// is one admission: a Do or Submit request, or a Hold (a batch is one).
// An operation holding a slot runs its searches one after another, so
// Running is also the number of searches running, bar ParallelECF's own
// workers. Cache hits and misses count lookups, batch items included.
type Stats struct {
	Queued    int   `json:"queued"`    // operations waiting for a slot
	Running   int   `json:"running"`   // operations holding a slot
	Submitted int64 `json:"submitted"` // admitted operations, ever
	Completed int64 `json:"completed"` // operations that reached done
	Failed    int64 `json:"failed"`    // operations that reached failed
	Canceled  int64 `json:"canceled"`  // operations that reached canceled

	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheEntries int   `json:"cacheEntries"`

	QueueFullRejections int64 `json:"queueFullRejections"`
	LeasesPruned        int64 `json:"leasesPruned"`

	// Search sums the search-effort counters of every request and batch
	// item answered by a fresh search, under /embed's stats names.
	// Cache hits replay a result without searching, so they add nothing.
	Search map[string]int64 `json:"search"`
}

// Engine admits embedding requests against a service. Safe for
// concurrent use.
type Engine struct {
	svc   *service.Service
	cfg   Config
	cache *resultCache // nil when disabled

	mu      sync.Mutex // guards closed, free and waiters
	closed  bool
	free    int       // slots nobody holds
	waiters []*Job    // FIFO of admitted requests waiting for a slot
	start   sync.Once // lazily spawns the tick on first admission

	// held counts the slots held; Close waits for it to drain. abort,
	// set when Close's ctx expires, stops every running search.
	held  sync.WaitGroup
	abort atomic.Bool

	jobsMu sync.Mutex
	jobs   map[JobID]*Job // Submit's jobs only
	nextID int64

	maintMu    sync.Mutex
	maintainer Maintainer

	tickStop chan struct{}
	tickWG   sync.WaitGroup

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

// New builds an engine over svc. The maintenance tick starts lazily on
// the first admission, so constructing an engine (or an httpapi.Server,
// which embeds one) costs no goroutines until it is actually used. Call
// Close to drain and stop a used engine.
func New(svc *service.Service, cfg Config) *Engine {
	cfg.applyDefaults()
	e := &Engine{
		svc:      svc,
		cfg:      cfg,
		free:     cfg.Workers,
		jobs:     make(map[JobID]*Job),
		tickStop: make(chan struct{}),
	}
	if cfg.CacheCapacity > 0 {
		e.cache = newResultCache(cfg.CacheCapacity)
	}
	return e
}

// newJob builds req's (unregistered) job.
func (e *Engine) newJob(req service.Request) *Job {
	job := &Job{req: req, done: make(chan struct{}), info: Info{State: StateQueued, Submitted: time.Now()}}
	if e.cache != nil && req.Query != nil {
		job.cacheKey, job.cacheable = requestKey(req)
	}
	return job
}

// admit decides a new job's fate, in this order: a request without a
// query is refused (service.ErrNoQuery), as is any job by a closing
// engine (ErrShuttingDown), even when cached; a cache hit finishes it
// without a slot (hit); a free slot is taken for it; a place in the FIFO
// is given to it while fewer than QueueDepth wait (queued); else it is
// refused with ErrQueueFull.
func (e *Engine) admit(job *Job) (hit, queued bool, err error) {
	if job.op == nil && job.req.Query == nil {
		return false, false, service.ErrNoQuery
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false, false, ErrShuttingDown
	}
	e.start.Do(func() {
		e.tickWG.Add(1)
		go e.tick()
	})
	if job.cacheable {
		if resp, ok := e.cache.get(job.cacheKey, e.svc.Model().Version()); ok {
			e.submitted.Add(1)
			e.cacheHits.Add(1)
			job.finish(Info{State: StateDone, Response: resp, FromCache: true}, &e.completed)
			return true, false, nil
		}
	}
	switch {
	case e.free > 0:
		e.free--
		e.held.Add(1)
	case len(e.waiters) < e.cfg.QueueDepth:
		job.ready, queued = make(chan struct{}), true
		e.waiters = append(e.waiters, job)
	default:
		e.rejections.Add(1)
		return false, false, ErrQueueFull
	}
	e.submitted.Add(1)
	return false, queued, nil
}

// await blocks a queued job until it is granted a slot (true) or leaves
// the FIFO without one (false): Close failed it, or gone closed and the
// job is settled canceled here.
func (e *Engine) await(job *Job, gone <-chan struct{}) bool {
	select {
	case <-job.ready:
	case <-gone:
		e.mu.Lock()
		i := slices.Index(e.waiters, job)
		if i >= 0 {
			e.waiters = slices.Delete(e.waiters, i, i+1)
		}
		e.mu.Unlock()
		if i >= 0 {
			job.finish(Info{State: StateCanceled, Err: ErrCanceled}, &e.canceled)
			return false
		}
		<-job.ready // removed meanwhile by release or Close
	}
	return job.granted
}

// release hands the caller's slot to the longest waiter, or frees it.
func (e *Engine) release() {
	e.mu.Lock()
	if len(e.waiters) > 0 {
		next := e.waiters[0]
		e.waiters = slices.Delete(e.waiters, 0, 1)
		next.granted = true
		close(next.ready)
		e.mu.Unlock()
		return
	}
	e.free++
	e.mu.Unlock()
	e.held.Done()
}

// Do answers one request on the caller's goroutine: admission, a wait
// for a slot if none is free, then the search in it. ctx cancels it,
// waiting or searching. Nothing is registered. The error is nil exactly
// when the Info is done; else it is the admission error, ctx.Err() if
// ctx ended the request, or the Info's Err (ErrCanceled if Close's
// expired ctx or the request's own Stop hook stopped the search).
func (e *Engine) Do(ctx context.Context, req service.Request) (Info, error) {
	return e.do(ctx, e.newJob(req))
}

// do admits job for a blocking caller and runs it in the slot it gets.
func (e *Engine) do(ctx context.Context, job *Job) (Info, error) {
	job.ctx = ctx
	hit, queued, err := e.admit(job)
	if err != nil {
		return Info{}, err
	}
	if !hit && (!queued || e.await(job, ctx.Done())) {
		e.run(job)
	}
	info := job.Info()
	if info.State == StateCanceled && ctx.Err() != nil {
		return info, ctx.Err()
	}
	return info, info.Err
}

// Hold runs a multi-search operation (a batch, a negotiation, a schedule
// scan, a placement) in one slot, admitted and canceled as Do's requests
// are; a nil error means op ran. op runs its searches in order with stop,
// which fires once ctx ends or Close aborts, as their Stop hook. op must
// not call the engine: with every slot held, it would wait on itself.
func (e *Engine) Hold(ctx context.Context, op func(stop func() bool)) error {
	_, err := e.do(ctx, &Job{op: op, done: make(chan struct{}), info: Info{State: StateQueued, Submitted: time.Now()}})
	return err
}

// EmbedBatch answers reqs in order in one slot (Hold), each as a Do
// request is in its slot (answer), against one pinned snapshot whose
// version it returns. The slot's stop replaces the items' Stop hooks.
func (e *Engine) EmbedBatch(ctx context.Context, reqs []service.Request) (out []Info, version uint64, err error) {
	err = e.Hold(ctx, func(stop func() bool) {
		snap := e.svc.Acquire()
		defer snap.Release()
		version, out = snap.Version, make([]Info, len(reqs))
		for i, req := range reqs {
			out[i], _ = e.answer(snap, e.newJob(req), stop) // items are not admissions
		}
	})
	return out, version, err
}

// SubmitWait is Do returning only the answer.
func (e *Engine) SubmitWait(ctx context.Context, req service.Request) (*service.Response, error) {
	info, err := e.Do(ctx, req)
	return info.Response, err
}

// Submit admits a request like Do, registers it as a job and returns the
// handle at once; the job waits and runs on a goroutine of its own. A
// cache hit is done on return (FromCache true). A full FIFO fails with
// ErrQueueFull, a closing engine with ErrShuttingDown.
func (e *Engine) Submit(req service.Request) (*Job, error) {
	job := e.newJob(req)
	hit, queued, err := e.admit(job)
	if err != nil {
		return nil, err
	}
	e.register(job)
	if !hit {
		go func() {
			if !queued || e.await(job, job.done) {
				e.run(job)
			}
		}()
	}
	return job, nil
}

// Job returns the handle for an ID.
func (e *Engine) Job(id JobID) (*Job, bool) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel stops a job: a queued job transitions to canceled immediately
// (and leaves the FIFO), a running one has its Stop hook flipped so the
// search halts at the next deadline check — well before any wall-clock
// timeout — and is marked canceled right away. Canceling an
// already-canceled job is an idempotent success; a done or failed job
// returns ErrJobFinished.
func (e *Engine) Cancel(id JobID) (Info, error) {
	job, ok := e.Job(id)
	if !ok {
		return Info{}, ErrJobNotFound
	}
	job.cancelFlag.Store(true)
	job.finish(Info{State: StateCanceled, Err: ErrCanceled}, &e.canceled)
	if info := job.Info(); info.State != StateCanceled {
		return info, ErrJobFinished
	}
	return job.Info(), nil
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	queued, running := len(e.waiters), e.cfg.Workers-e.free
	e.mu.Unlock()
	return Stats{
		Queued:              queued,
		Running:             running,
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

// Close drains the engine: nothing new is admitted, waiters fail with
// ErrShuttingDown, running searches finish, and the tick is joined. On
// ctx expiry every running search is stopped and ctx.Err() is returned
// once they have.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, job := range e.waiters {
		job.finish(Info{State: StateFailed, Err: ErrShuttingDown}, &e.failed)
		close(job.ready)
	}
	e.waiters = nil
	e.mu.Unlock()

	close(e.tickStop)
	e.tickWG.Wait()

	drained := make(chan struct{})
	go func() {
		e.held.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		e.abort.Store(true)
		<-drained
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

// stopped reports whether Cancel, the caller's ctx or Close stopped job.
func (e *Engine) stopped(job *Job) bool {
	return job.cancelFlag.Load() || e.abort.Load() || (job.ctx != nil && job.ctx.Err() != nil)
}

// run executes one job in the slot it holds, then hands the slot on:
// re-check cancellation, then run a Hold operation, or answer a request
// against a pinned snapshot, with the job's Stop hook threaded through.
func (e *Engine) run(job *Job) {
	defer e.release()
	job.mu.Lock()
	start := !job.info.State.Terminal() && !e.stopped(job)
	if start {
		job.info.State, job.info.Started = StateRunning, time.Now()
	}
	job.mu.Unlock()
	if !start {
		// Canceled while waiting; Cancel may have finished it already, but
		// settle it regardless so no waiter can hang on the done channel.
		job.finish(Info{State: StateCanceled, Err: ErrCanceled}, &e.canceled)
		return
	}
	prevStop := job.req.Stop
	stop := func() bool {
		return e.stopped(job) || (prevStop != nil && prevStop())
	}
	if job.op != nil {
		job.op(stop)
		job.finish(Info{State: StateDone}, &e.completed)
		return
	}
	if req := &job.req; req.Optimize && req.Objective.Enabled() {
		// Anytime hook, injected here — after the cache key was fixed at
		// admission, exactly like the Stop hook — so polling a running
		// optimize job surfaces its best incumbent.
		prevImprove := req.OnImprove
		req.OnImprove = func(nm service.NamedMapping, cost float64) {
			job.noteBest(nm, cost)
			if prevImprove != nil {
				prevImprove(nm, cost)
			}
		}
	}
	snap := e.svc.Acquire()
	info, counter := e.answer(snap, job, stop)
	snap.Release()
	job.finish(info, counter)
}

// answer settles job's request in a held slot against snap, with the
// counter of its outcome's state: a cache hit at snap's version (for an
// admitted job, a second look), else a search with stop as its Stop hook.
// A search stop fired on is canceled; any other answer adds to
// Stats.Search and, when deterministic, is cached.
func (e *Engine) answer(snap service.Snapshot, job *Job, stop func() bool) (Info, *atomic.Int64) {
	if job.cacheable {
		if resp, ok := e.cache.get(job.cacheKey, snap.Version); ok {
			e.cacheHits.Add(1)
			return Info{State: StateDone, Response: resp, FromCache: true}, &e.completed
		}
		e.cacheMisses.Add(1)
	}
	req := job.req
	req.Stop = stop
	resp, err := snap.Embed(req)
	switch {
	case stop():
		return Info{State: StateCanceled, Err: ErrCanceled}, &e.canceled
	case err != nil:
		return Info{State: StateFailed, Err: err}, &e.failed
	}
	e.searchMu.Lock()
	e.search.Add(&resp.Stats)
	e.searchMu.Unlock()
	if job.cacheable && cacheableResponse(req, resp) {
		e.cache.put(job.cacheKey, resp.ModelVersion, resp)
	}
	return Info{State: StateDone, Response: resp}, &e.completed
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

// expireJobs forgets terminal Submit job records older than the
// retention window so the ID index stays bounded on a long-running
// daemon.
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
