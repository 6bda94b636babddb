package core

import (
	"sync"

	"netembed/internal/sets"
)

// This file is the recycling layer behind the steady-state serve path:
// every ECF/RWB/DynamicECF/ParallelECF call used to allocate its full
// per-search state (live-domain bitsets, trail, arena, conflict sets,
// scratch buffers) and a fresh set of filter matrices, all of which die
// the moment the result is built. Under sustained request load that is
// the dominant allocator traffic, so both structures are pooled: a
// search acquires recycled state, re-shapes it to the problem's (nq, nr)
// geometry — allocating only when the recycled capacity is too small —
// and releases it once the Result (which holds only cloned mappings and
// value-typed stats) has been extracted.
//
// Release discipline: only state that provably does not escape into the
// Result or to the caller is pooled. Searchers built by the public
// entry points release themselves; Filters release only at the
// BuildFilters call sites inside this package — filters handed in by
// callers (ECFWithFilters/RWBWithFilters) are caller-owned and are
// never pooled. release clears every reference that could pin caller
// memory (problem, filters, option closures, the solutions slice that
// escaped into the Result) before returning the carcass to the pool.

// grow returns s with length n, reusing the backing array when capacity
// allows. Surviving elements keep their old values (so slice-of-slice
// slots retain reusable sub-capacity); callers overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var fcPool = &sync.Pool{New: func() any { return new(fcSearcher) }}

func acquireFCSearcher() *fcSearcher { return fcPool.Get().(*fcSearcher) }

// release returns the searcher's backing storage to the pool. The
// solutions slice escaped into the Result and the option closures
// (Stop/OnSolution) belong to the caller, so both are dropped rather
// than recycled.
func (s *fcSearcher) release() {
	if s == nil {
		return
	}
	s.p = nil
	s.f = nil
	s.opt = Options{}
	s.rng = nil
	s.solutions = nil
	s.obj = nil      // per-host terms sized to the caller's host
	s.bbShared = nil // points into ParallelECF's shared state
	s.stopClock = stopClock{}
	fcPool.Put(s)
}

var filtersPool = &sync.Pool{New: func() any { return new(Filters) }}

func acquireFilters() *Filters { return filtersPool.Get().(*Filters) }

// release returns the filter matrices to the pool. Call only on filters
// this package built and whose rows provably do not outlive the search
// that used them; caller-supplied filters are never released. Every row
// slot up to cap is nilled: a row may alias an index snapshot, which
// a pooled Filters must not pin, and appendTableB reuses slots as empty.
func (f *Filters) release() {
	if f == nil {
		return
	}
	f.p = nil
	for _, rows := range f.tablesB[:cap(f.tablesB)] {
		clear(rows[:cap(rows)])
	}
	if f.scratchCols != nil {
		f.scratchCols.Reset(nil) // the columns' graph is the caller's
	}
	filtersPool.Put(f)
}

// rowArena is one recycled MakeBitsets allocation: the row headers and
// their shared backing words, re-shaped per build.
type rowArena struct {
	rows    []sets.Bitset
	backing []uint64
}

// adjacency hands out the build's next mask-adjacency, its Out and In
// rows (one set of rows when symmetric) and Out's backing words,
// recycling arenas positionally: the i-th arena of this build reuses the
// storage of the i-th arena of the build that previously owned this
// Filters. The rows are empty unless dirty, which leaves a symmetric
// arena's recycled words as they were for a caller that overwrites them
// all.
func (f *Filters) adjacency(symmetric, dirty bool) (out, in []sets.Bitset, words []uint64) {
	next := func() *rowArena {
		if f.arenaNext >= len(f.arenas) {
			f.arenas = append(f.arenas, rowArena{})
		}
		a := &f.arenas[f.arenaNext]
		f.arenaNext++
		if dirty && symmetric {
			a.rows, a.backing = sets.ReshapeBitsets(a.rows, a.backing, f.nr, f.nr)
		} else {
			a.rows, a.backing = sets.ReuseBitsets(a.rows, a.backing, f.nr, f.nr)
		}
		return a
	}
	a := next()
	if out, words = a.rows, a.backing; symmetric {
		return out, out, words
	}
	return out, next().rows, words
}

// appendTableB appends one table of nr nil rows, recycling the row
// slice the previous owner of this Filters had at the same position
// (spare slices survive between len and cap across the [:0] reset;
// release left every slot nil).
func appendTableB(ts [][]*sets.Bitset, nr int) [][]*sets.Bitset {
	if n := len(ts); n < cap(ts) {
		ts = ts[: n+1 : cap(ts)]
		if rows := ts[n]; cap(rows) >= nr {
			ts[n] = rows[:nr]
		} else {
			ts[n] = make([]*sets.Bitset, nr)
		}
		return ts
	}
	return append(ts, make([]*sets.Bitset, nr))
}
