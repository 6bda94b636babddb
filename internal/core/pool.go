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

// poolingEnabled gates the recycling globally. The equivalence tests
// flip it off (no concurrent searches running) to obtain from-scratch
// allocations when pinning that a recycled search is byte-identical to
// a fresh one.
var poolingEnabled = true

// grow returns s with length n, reusing the backing array when capacity
// allows. Surviving elements keep their old values (so slice-of-slice
// slots retain reusable sub-capacity); callers overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var fcPool = sync.Pool{New: func() any { return new(fcSearcher) }}

func acquireFCSearcher() *fcSearcher { return fcPool.Get().(*fcSearcher) }

// release returns the searcher's backing storage to the pool. The
// solutions slice escaped into the Result and the option closures
// (Stop/OnSolution) belong to the caller, so both are dropped rather
// than recycled.
func (s *fcSearcher) release() {
	if !poolingEnabled || s == nil {
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

var filtersPool = sync.Pool{New: func() any { return new(Filters) }}

func acquireFilters() *Filters { return filtersPool.Get().(*Filters) }

// release returns the filter matrices to the pool. Call only on filters
// this package built and whose rows provably do not outlive the search
// that used them; caller-supplied filters are never released.
func (f *Filters) release() {
	if !poolingEnabled || f == nil {
		return
	}
	f.p = nil
	if f.scratchCols != nil {
		f.scratchCols.Reset(nil) // the columns' graph is the caller's
	}
	filtersPool.Put(f)
}

// rowArena is one recycled MakeBitsets allocation: the row headers and
// their shared backing words, re-shaped per build by nextArena.
type rowArena struct {
	rows    []sets.Bitset
	backing []uint64
}

// nextArena hands out the build's next row arena of n empty rows,
// recycling positionally: the i-th arena of this build reuses the storage
// of the i-th arena of the build that previously owned this Filters,
// which under a steady workload has the same geometry.
func (f *Filters) nextArena(n int) []sets.Bitset {
	if f.arenaNext >= len(f.arenas) {
		f.arenas = append(f.arenas, rowArena{})
	}
	a := &f.arenas[f.arenaNext]
	f.arenaNext++
	a.rows, a.backing = sets.ReuseBitsets(a.rows, a.backing, f.nr, n)
	return a.rows
}

// appendTableB appends one dense table of nr nil rows, recycling the row
// slice the previous owner of this Filters had at the same position
// (spare slices survive between len and cap across the [:0] reset).
func appendTableB(ts [][]*sets.Bitset, nr int) [][]*sets.Bitset {
	if n := len(ts); n < cap(ts) {
		ts = ts[: n+1 : cap(ts)]
		rows := ts[n]
		if cap(rows) < nr {
			rows = make([]*sets.Bitset, nr)
		} else {
			rows = rows[:nr]
			clear(rows) // nil row = empty: stale rows must not leak through
		}
		ts[n] = rows
		return ts
	}
	return append(ts, make([]*sets.Bitset, nr))
}

// appendTable is appendTableB for the sparse representation.
func appendTable(ts [][]sets.Set, nr int) [][]sets.Set {
	if n := len(ts); n < cap(ts) {
		ts = ts[: n+1 : cap(ts)]
		rows := ts[n]
		if cap(rows) < nr {
			rows = make([]sets.Set, nr)
		} else {
			rows = rows[:nr]
			clear(rows)
		}
		ts[n] = rows
		return ts
	}
	return append(ts, make([]sets.Set, nr))
}
