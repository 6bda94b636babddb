package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netembed/internal/graph"
)

// ParallelECF explores the ECF permutation tree with a pool of
// Options.Workers goroutines (default GOMAXPROCS) over the shared
// immutable filter matrices — slice or bitset rows alike.
//
// The pool schedules work-stealingly: workers pull root
// candidates (first-level subtrees) from a shared atomic cursor, so a
// worker that drew an easy subtree immediately claims the next one
// instead of idling, and while expanding a root each worker publishes
// surplus *second-level* subtrees onto a bounded deque that idle workers
// steal from once the cursor runs dry. A root whose subtree dwarfs all
// others — the static-sharding worst case, where one unlucky worker
// dominates wall-clock — is therefore split across the pool.
//
// The pool enumerates exactly sequential ECF's solution set, and
// solutions are returned sorted for determinism. With
// Options.MaxSolutions set, the cap applies globally across workers, but
// which embeddings fill the quota depends on scheduling.
//
// The pool's counters, summed over its workers, are added onto the
// filter-build stats.
func ParallelECF(p *Problem, opt Options) *Result {
	workers := opt.Workers
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	optimize := opt.Optimize && opt.Objective.Enabled()
	if optimize {
		opt.MaxSolutions = 0 // optimality needs the exhausted tree
		opt.OnSolution = nil
	}
	start := time.Now()
	f := BuildFilters(p, &opt)

	if p.Query.NumNodes() == 0 {
		// Degenerate: the empty query has exactly the empty embedding.
		res := &Result{
			Solutions: []Mapping{{}},
			Status:    StatusComplete,
			Exhausted: true,
			Stats:     withElapsed(f.Stats(), start),
		}
		f.release()
		return res
	}

	order := searchOrder(f, opt.Order)
	rootCands := f.Base(order[0])

	sh := &stealShared{
		deque:    make([]stealTask, 0, stealDequeCap),
		roots:    rootCands,
		budget:   int64(opt.MaxSolutions),
		start:    start,
		userStop: opt.Stop,
		optimize: optimize,
	}
	sh.incumbent.Store(math.Float64bits(math.Inf(1)))
	sh.cond = sync.NewCond(&sh.mu)
	sh.pending.Store(int64(len(rootCands)))
	if len(rootCands) == 0 {
		sh.close()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newStealWorker(p, f, opt, sh)
			w.loop()
			w.s.release()
		}()
	}
	wg.Wait()

	sortMappings(sh.solutions)
	stats := withElapsed(f.Stats(), start)
	stats.Add(&sh.stats)
	stats.TimeToFirst = time.Duration(sh.first.Load())

	exhausted := !sh.timedOut.Load() && !sh.stopped.Load()
	f.release()
	if optimize {
		res := &Result{Exhausted: exhausted, Stats: stats}
		if sh.hasBest {
			res.Solutions = []Mapping{sh.best.Clone()}
			res.Cost = sh.bestCost
		}
		res.Status = classify(exhausted, len(res.Solutions))
		return res
	}
	n := len(sh.solutions)
	return &Result{
		Solutions: sh.solutions,
		Exhausted: exhausted,
		Status:    classify(exhausted, n),
		Stats:     stats,
	}
}

// stealDequeCap bounds the shared deque: enough published subtrees to
// keep any realistic pool busy, small enough that publication overhead
// (one mutex push per task) stays invisible next to subtree search.
const stealDequeCap = 256

// stealTask is one published second-level subtree: the root's and the
// second node's host assignments.
type stealTask struct{ root, second int32 }

// stealShared is the state a ParallelECF worker pool shares.
type stealShared struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deque  []stealTask
	closed bool

	roots   []int32
	cursor  atomic.Int64 // next unclaimed root index
	pending atomic.Int64 // unfinished roots + published tasks
	futile  atomic.Bool  // a subtree proved failure independent of all roots

	budget   int64        // MaxSolutions across the pool (0 = unlimited)
	taken    atomic.Int64 // solutions claimed toward the budget
	userStop func() bool

	solutions []Mapping // guarded by mu
	first     atomic.Int64
	start     time.Time

	// Branch-and-bound pool state (Options.Optimize). The fleet incumbent
	// bound lives in one atomic word (Float64bits, monotone decreasing via
	// tightenIncumbent's CAS loop) so every worker's boundOK probe is a
	// single atomic load — never torn, never locked. The incumbent
	// *mapping* is colder (only improvements touch it) and rides under mu.
	optimize  bool
	incumbent atomic.Uint64
	best      Mapping // guarded by mu
	bestCost  float64 // guarded by mu
	hasBest   bool    // guarded by mu

	timedOut atomic.Bool
	stopped  atomic.Bool

	stats Stats // the workers' counters, summed as each exits; guarded by mu
}

// close wakes every waiter so the pool can exit.
func (sh *stealShared) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// finishUnit retires one unit of work (a root or a stolen task); the
// last unit closes the deque.
func (sh *stealShared) finishUnit() {
	if sh.pending.Add(-1) == 0 {
		sh.close()
	}
}

// tryPublish offers up to len(tasks) second-level subtrees to the pool
// and returns how many were accepted (deque capacity permitting). The
// pending count is bumped before the tasks become poppable so the pool
// cannot shut down while they wait.
func (sh *stealShared) tryPublish(tasks []stealTask) int {
	sh.mu.Lock()
	room := stealDequeCap - len(sh.deque)
	if room <= 0 || sh.closed {
		sh.mu.Unlock()
		return 0
	}
	n := len(tasks)
	if n > room {
		n = room
	}
	sh.pending.Add(int64(n))
	sh.deque = append(sh.deque, tasks[:n]...)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	return n
}

// retract removes not-yet-stolen tasks of a root that conflict analysis
// just proved solution-free (a backjump to or past the root level), so
// thieves do not re-search subtrees whose failure is already known. The
// retracted units are retired like finished ones.
func (sh *stealShared) retract(root int32) {
	sh.mu.Lock()
	kept := sh.deque[:0]
	removed := 0
	for _, t := range sh.deque {
		if t.root == root {
			removed++
		} else {
			kept = append(kept, t)
		}
	}
	sh.deque = kept
	sh.mu.Unlock()
	if removed > 0 && sh.pending.Add(int64(-removed)) == 0 {
		sh.close()
	}
}

// popWait blocks until a stolen task is available or the pool is done.
func (sh *stealShared) popWait() (stealTask, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if n := len(sh.deque); n > 0 {
			t := sh.deque[n-1]
			sh.deque = sh.deque[:n-1]
			return t, true
		}
		if sh.closed {
			return stealTask{}, false
		}
		sh.cond.Wait()
	}
}

// stealWorker drives one goroutine's FC searcher over claimed roots and
// stolen subtrees, reusing the searcher's domains/trail across tasks
// (each task fully undoes its prefix, restoring the initial state).
type stealWorker struct {
	sh  *stealShared
	s   *fcSearcher
	nq  int
	pub []stealTask // publication scratch
}

func newStealWorker(p *Problem, f *Filters, opt Options, sh *stealShared) *stealWorker {
	wopt := opt
	wopt.MaxSolutions = 0 // the global budget is enforced in OnSolution
	// The futile flag is deliberately NOT wired into the Stop hook: the
	// stopClock records hook-triggered aborts as timeouts, which would
	// misclassify a *proven* no-match as a truncated (inconclusive)
	// search. Futility implies every remaining subtree is solution-free,
	// so in-flight subtrees are left to finish naturally (they find
	// nothing) and only task boundaries skip — exhaustiveness is
	// preserved, matching sequential ECF's complete/exhausted answer.
	wopt.Stop = func() bool {
		return sh.stopped.Load() || (sh.userStop != nil && sh.userStop())
	}
	wopt.OnSolution = nil
	s := newFCSearcher(p, f, wopt, nil, sh.start, false)
	// Per-worker counters start at zero: the filter-build stats are folded
	// in exactly once by the pool's final merge, not once per worker.
	s.stats = Stats{}
	if sh.optimize {
		// Workers race toward one shared bound: a local improvement first
		// tightens the fleet incumbent (recordIncumbent's monotone CAS on
		// sh.incumbent), and only the winner reaches this hook to publish
		// its mapping. The mu-guarded re-check absorbs the window between
		// winning the CAS and acquiring mu, in which a still-better
		// incumbent may have published first.
		s.bbShared = &sh.incumbent
		userImprove := opt.OnImprove
		s.opt.OnImprove = func(m Mapping, cost float64) {
			ns := time.Since(sh.start).Nanoseconds()
			if !sh.first.CompareAndSwap(0, ns) {
				for {
					cur := sh.first.Load()
					if cur <= ns || sh.first.CompareAndSwap(cur, ns) {
						break
					}
				}
			}
			sh.mu.Lock()
			if !sh.hasBest || cost < sh.bestCost {
				sh.best = append(sh.best[:0], m...)
				sh.bestCost = cost
				sh.hasBest = true
				if userImprove != nil {
					// Forwarded under mu so the caller observes a strictly
					// improving (monotone) sequence of incumbents.
					userImprove(sh.best, cost)
				}
			}
			sh.mu.Unlock()
		}
		return &stealWorker{sh: sh, s: s, nq: p.Query.NumNodes()}
	}
	s.opt.OnSolution = func(m Mapping) bool {
		n := sh.taken.Add(1)
		if sh.budget > 0 && n > sh.budget {
			return false // quota consumed by other workers
		}
		ns := time.Since(sh.start).Nanoseconds()
		if !sh.first.CompareAndSwap(0, ns) {
			for {
				cur := sh.first.Load()
				if cur <= ns || sh.first.CompareAndSwap(cur, ns) {
					break
				}
			}
		}
		sh.mu.Lock()
		sh.solutions = append(sh.solutions, m.Clone())
		sh.mu.Unlock()
		if sh.budget > 0 && n >= sh.budget {
			sh.stopped.Store(true)
			sh.close() // wake idle stealers so they observe the stop
			return false
		}
		return true
	}
	return &stealWorker{sh: sh, s: s, nq: p.Query.NumNodes()}
}

// loop claims fresh roots until the cursor runs dry, then steals
// published subtrees until the pool drains, and finally adds the
// worker's own counters to the pool's.
func (w *stealWorker) loop() {
	sh := w.sh
	for {
		if i := sh.cursor.Add(1) - 1; int(i) < len(sh.roots) {
			w.runRoot(sh.roots[i])
			sh.finishUnit()
			continue
		}
		t, ok := sh.popWait()
		if !ok {
			break
		}
		w.s.stats.Steals++
		w.runSteal(t)
		sh.finishUnit()
	}
	s := w.s
	if s.timedOut {
		sh.timedOut.Store(true)
	}
	if s.stopped {
		sh.stopped.Store(true)
	}
	sh.mu.Lock()
	sh.stats.Add(&s.stats)
	sh.mu.Unlock()
}

// noteJump inspects a subtree's backjump target: -1 from a clean
// (non-aborted, solution-free) subtree proves the failure involved no
// assigned level at all, i.e. the instance is infeasible whichever root
// is tried — exactly when sequential FC-CBJ would stop trying root
// values. Remaining roots and stolen tasks then drain trivially.
func (w *stealWorker) noteJump(jd int) {
	if jd < 0 && !w.s.timedOut && !w.s.stopped {
		w.sh.futile.Store(true)
	}
}

// runRoot explores the subtree of one root candidate, publishing surplus
// second-level subtrees for idle workers to steal.
func (w *stealWorker) runRoot(r int32) {
	s := w.s
	if s.timedOut || s.stopped || w.sh.futile.Load() {
		return
	}
	node := s.order[0]
	s.stats.NodesVisited++
	mark, amark := len(s.trail), len(s.arena)
	s.assign[node] = r
	s.used.Set(r)
	// boundOK both prunes against the fleet incumbent and extends the
	// incremental cost stack the subtree's bound checks read — the manual
	// depth-0/1 loops here bypass expand, so they must call it themselves.
	if s.forwardCheck(0, node, r) && s.boundOK(0, r) {
		if w.nq == 1 {
			s.record()
		} else {
			w.expandRootSecondLevel(r)
		}
	}
	s.undoTo(mark, amark, 0)
	s.used.Clear(r)
	s.assign[node] = -1
}

// expandRootSecondLevel drives the depth-1 value loop manually so the
// tail of the second-level candidate list can be published to the deque;
// the kept prefix is searched inline exactly as fcSearcher.expand would.
func (w *stealWorker) expandRootSecondLevel(r int32) {
	s := w.s
	node2 := s.order[1]
	s.conf[1].Reset()
	buf := s.materialize(1, node2)
	if len(buf) > 1 {
		// Publish everything but the first candidate: the publisher
		// keeps one subtree so it is never idle, steals the rest back
		// from the shared deque alongside the other workers, and the
		// fine granularity is what splits a root whose subtree dwarfs
		// all others. A full deque just means the remainder is searched
		// inline.
		w.pub = w.pub[:0]
		for _, c := range buf[1:] {
			w.pub = append(w.pub, stealTask{root: r, second: c})
		}
		if n := w.sh.tryPublish(w.pub); n > 0 {
			// tryPublish accepted the first n published tasks, i.e.
			// buf[1:1+n]; keep the head candidate plus the unaccepted
			// tail.
			copy(buf[1:], buf[1+n:])
			buf = buf[:len(buf)-n]
		}
	}
	for _, c := range buf {
		if s.checkDeadline() || s.stopped {
			return
		}
		s.stats.NodesVisited++
		mark, amark := len(s.trail), len(s.arena)
		s.assign[node2] = c
		s.used.Set(c)
		if s.forwardCheck(1, node2, c) && s.boundOK(1, c) {
			jd := s.search(2)
			if jd < 1 {
				s.undoTo(mark, amark, 1)
				s.used.Clear(c)
				s.assign[node2] = -1
				if !s.timedOut && !s.stopped {
					// The jump proves every sibling subtree of this root
					// solution-free: take back the published ones.
					w.sh.retract(r)
				}
				w.noteJump(jd)
				return
			}
		}
		s.undoTo(mark, amark, 1)
		s.used.Clear(c)
		s.assign[node2] = -1
	}
}

// runSteal explores one stolen second-level subtree.
func (w *stealWorker) runSteal(t stealTask) {
	s := w.s
	if s.timedOut || s.stopped || w.sh.futile.Load() {
		return
	}
	node, node2 := s.order[0], s.order[1]
	mark, amark := len(s.trail), len(s.arena)
	s.assign[node] = t.root
	s.used.Set(t.root)
	if s.forwardCheck(0, node, t.root) && s.boundOK(0, t.root) {
		s.conf[1].Reset()
		s.stats.NodesVisited++
		mark2, amark2 := len(s.trail), len(s.arena)
		s.assign[node2] = t.second
		s.used.Set(t.second)
		if s.forwardCheck(1, node2, t.second) && s.boundOK(1, t.second) {
			jd := s.search(2)
			if jd < 1 && !s.timedOut && !s.stopped {
				w.sh.retract(t.root) // siblings of a proven-dead root
			}
			w.noteJump(jd)
		}
		s.undoTo(mark2, amark2, 1)
		s.used.Clear(t.second)
		s.assign[node2] = -1
	}
	s.undoTo(mark, amark, 0)
	s.used.Clear(t.root)
	s.assign[node] = -1
}

func withElapsed(st Stats, start time.Time) Stats {
	st.Elapsed = time.Since(start)
	return st
}

// sortMappings orders embeddings lexicographically so parallel runs return
// deterministic output regardless of worker interleaving.
func sortMappings(ms []Mapping) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// RandomMapping returns a uniformly random injective (not necessarily
// feasible) assignment, used by baselines and tests as a starting point.
func RandomMapping(p *Problem, rng *rand.Rand) Mapping {
	nr := p.Host.NumNodes()
	perm := rng.Perm(nr)
	m := make(Mapping, p.Query.NumNodes())
	for q := range m {
		m[q] = graph.NodeID(perm[q])
	}
	return m
}
