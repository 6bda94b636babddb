package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/sets"
)

// LeaseID identifies an active reservation.
type LeaseID int64

// Lease records one allocated embedding: the hosting nodes it occupies and
// an optional validity window (zero times mean "until released"). Windowed
// leases power the §VIII scheduling extension.
type Lease struct {
	ID    LeaseID
	Nodes []graph.NodeID
	Start time.Time
	End   time.Time
}

// active reports whether the lease holds resources at time t.
func (l Lease) active(t time.Time) bool {
	if l.Start.IsZero() && l.End.IsZero() {
		return true
	}
	if !l.Start.IsZero() && t.Before(l.Start) {
		return false
	}
	if !l.End.IsZero() && !t.Before(l.End) {
		return false
	}
	return true
}

// Ledger is the reservation system of Fig. 1: it tracks which hosting
// nodes are allocated to embeddings so subsequent queries can exclude
// them. Nodes default to a single slot; SetCapacity lets multi-tenant
// hosts (a node attribute like "slots") carry several concurrent leases.
// Safe for concurrent use.
type Ledger struct {
	mu       sync.Mutex
	leases   map[LeaseID]Lease
	next     LeaseID
	clock    func() time.Time
	capacity func(graph.NodeID) int
}

// NewLedger returns an empty reservation ledger with single-slot nodes.
func NewLedger() *Ledger {
	return &Ledger{
		leases:   make(map[LeaseID]Lease),
		clock:    time.Now,
		capacity: func(graph.NodeID) int { return 1 },
	}
}

// SetCapacity installs the per-node slot count used by allocation checks
// and saturation queries. A nil function restores single-slot semantics;
// non-positive capacities count as 1.
func (l *Ledger) SetCapacity(capacity func(graph.NodeID) int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if capacity == nil {
		capacity = func(graph.NodeID) int { return 1 }
	}
	l.capacity = capacity
}

func (l *Ledger) capLocked(r graph.NodeID) int {
	if c := l.capacity(r); c > 1 {
		return c
	}
	return 1
}

// SetClock injects a time source (tests and the scheduler use this).
func (l *Ledger) SetClock(clock func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock = clock
}

// Now reads the ledger's clock — time.Now unless SetClock injected a
// source. Periodic maintenance (the engine tick) passes this to Prune so
// simulated clocks never see wall-time deleting their live leases.
func (l *Ledger) Now() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.clock()
}

// Ledger errors.
var (
	ErrLeaseNotFound = errors.New("service: lease not found")
	ErrConflict      = errors.New("service: reservation conflict")
	// ErrNotWindowed rejects Renew on an open-ended lease: it never
	// expires, so there is nothing to extend.
	ErrNotWindowed = errors.New("service: lease has no expiry window")
)

// Allocate reserves the hosting nodes of m indefinitely. It fails with
// ErrConflict if any node has every slot held by a lease that has not
// ended.
func (l *Ledger) Allocate(m core.Mapping) (LeaseID, error) {
	return l.AllocateWindow(m, time.Time{}, time.Time{})
}

// AllocateWindow reserves the hosting nodes of m for [start, end). Zero
// times make the lease open-ended on that side; an open start is checked
// for conflicts from the ledger clock on.
func (l *Ledger) AllocateWindow(m core.Mapping, start, end time.Time) (LeaseID, error) {
	if !start.IsZero() && !end.IsZero() && !start.Before(end) {
		return 0, fmt.Errorf("service: empty lease window [%v, %v)", start, end)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.admitLocked(m, start, end, 0); err != nil {
		return 0, err
	}
	l.next++
	id := l.next
	nodes := make([]graph.NodeID, len(m))
	copy(nodes, m)
	l.leases[id] = Lease{ID: id, Nodes: nodes, Start: start, End: end}
	return id, nil
}

// windowsOverlap reports whether two [start, end) windows intersect, with
// zero times meaning unbounded.
func windowsOverlap(aStart, aEnd, bStart, bEnd time.Time) bool {
	startsBefore := func(s, e time.Time) bool { // s < e, honoring zero = -inf/+inf
		return e.IsZero() || s.IsZero() || s.Before(e)
	}
	return startsBefore(aStart, bEnd) && startsBefore(bStart, aEnd)
}

// Prune removes leases whose validity windows ended at or before now,
// returning the IDs it dropped so owners of long-lived state keyed by
// lease — the embedding lifecycle registry — can mark the affected
// records Expired instead of discovering the loss lazily. Expired
// windowed leases no longer hold resources (the free-set scan already
// ignores them) but their records otherwise accumulate
// forever; the job engine calls this from its periodic tick so
// long-lived services stay lean.
func (l *Ledger) Prune(now time.Time) []LeaseID {
	l.mu.Lock()
	defer l.mu.Unlock()
	var removed []LeaseID
	for id, lease := range l.leases {
		if !lease.End.IsZero() && !now.Before(lease.End) {
			delete(l.leases, id)
			removed = append(removed, id)
		}
	}
	return removed
}

// Renew extends a windowed lease to end at newEnd instead of its current
// expiry, holding the lease's nodes continuously — no release window in
// which a concurrent placement can steal a slot, which is exactly the
// race release + re-allocate invites. Open-ended leases fail with
// ErrNotWindowed (nothing expires); newEnd must lie strictly after the
// current expiry. The extension is conflict-checked like an allocation:
// if any of the lease's nodes has every slot held by other leases
// overlapping the added coverage, Renew fails with ErrConflict and the
// lease is unchanged. A lease whose window already lapsed (but which
// Prune has not yet swept) can be revived the same way — the added
// coverage then starts at the current clock, so placements made after
// the lapse are honored, not clobbered.
func (l *Ledger) Renew(id LeaseID, newEnd time.Time) error {
	if newEnd.IsZero() {
		return fmt.Errorf("service: renew needs a concrete new expiry")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lease, ok := l.leases[id]
	if !ok {
		return ErrLeaseNotFound
	}
	if lease.End.IsZero() {
		return ErrNotWindowed
	}
	if !newEnd.After(lease.End) {
		return fmt.Errorf("service: renew expiry %v does not extend current expiry %v", newEnd, lease.End)
	}
	// The coverage the renewal adds: [End, newEnd), pushed forward to the
	// present when the lease already lapsed — holds that came and went
	// entirely during the lapse cannot conflict with the future.
	cover := lease.End
	if now := l.clock(); now.After(cover) {
		cover = now
	}
	if err := l.admitLocked(lease.Nodes, cover, newEnd, id); err != nil {
		return fmt.Errorf("%w over the extension", err)
	}
	lease.End = newEnd
	l.leases[id] = lease
	return nil
}

// Replace atomically swaps the node set of a live lease — the commit
// primitive for migration plans. Semantically it is allocate-new-then-
// release-old executed under one ledger lock: the replacement mapping is
// conflict-checked against every *other* lease overlapping this lease's
// window (the lease's own holds are excluded, so nodes kept across the
// migration never double-count), and only if every node has a free slot
// does the lease's node set change. On ErrConflict — a concurrent
// allocation stole a migration target between planning and commit — the
// lease is untouched and the caller keeps the old placement: rollback is
// the no-op. The lease's ID and validity window survive the swap.
func (l *Ledger) Replace(id LeaseID, m core.Mapping) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lease, ok := l.leases[id]
	if !ok {
		return ErrLeaseNotFound
	}
	if err := l.admitLocked(m, lease.Start, lease.End, id); err != nil {
		return err
	}
	nodes := make([]graph.NodeID, len(m))
	copy(nodes, m)
	lease.Nodes = nodes
	l.leases[id] = lease
	return nil
}

// Release frees a lease.
func (l *Ledger) Release(id LeaseID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.leases[id]; !ok {
		return ErrLeaseNotFound
	}
	delete(l.leases, id)
	return nil
}

// Lease returns a lease by ID.
func (l *Ledger) Lease(id LeaseID) (Lease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lease, ok := l.leases[id]
	return lease, ok
}

// ReservedNodes lists hosting nodes with a lease active right now.
func (l *Ledger) ReservedNodes() []graph.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reservedAtLocked(l.clock())
}

// ReservedNodesAt lists hosting nodes with a lease active at time t.
func (l *Ledger) ReservedNodesAt(t time.Time) []graph.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reservedAtLocked(t)
}

func (l *Ledger) reservedAtLocked(t time.Time) []graph.NodeID {
	var out []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, lease := range l.leases {
		if !lease.active(t) {
			continue
		}
		for _, r := range lease.Nodes {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// Free returns the hosts among the first n nodes that an open-ended
// Allocate would accept: those with a slot no unexpired lease holds. It is
// the set ExcludeReserved searches; with single-slot capacity, a host
// holding any lease that has not ended — one scheduled to start later
// included — is not in it.
func (l *Ledger) Free(n int) *sets.Bitset {
	return l.FreeInWindow(n, time.Time{}, time.Time{})
}

// FreeInWindow returns the hosts among the first n nodes that
// AllocateWindow would accept for [start, end): those with a slot no lease
// overlapping the window holds. The windowed scheduler searches these.
func (l *Ledger) FreeInWindow(n int, start, end time.Time) *sets.Bitset {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.freeLocked(n, start, end, 0)
}

// FreeFor returns the hosts among the first n nodes that Replace would
// accept for lease id: those with a slot free over the lease's own window
// once its own holds are set aside. Repair plans search these, so a plan
// commits unless the ledger moves between planning and Replace.
func (l *Ledger) FreeFor(id LeaseID, n int) (*sets.Bitset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lease, ok := l.leases[id]
	if !ok {
		return nil, ErrLeaseNotFound
	}
	return l.freeLocked(n, lease.Start, lease.End, id), nil
}

// freeLocked is the one hold count behind every capacity decision: the
// hosts among the first n whose holds by leases overlapping [start, end),
// lease skip's excepted, leave a slot free. An open start means the
// ledger clock, so a lease whose window has ended holds nothing whether or
// not Prune has swept it. Lease IDs start at 1, so skip 0 skips nothing.
func (l *Ledger) freeLocked(n int, start, end time.Time, skip LeaseID) *sets.Bitset {
	if start.IsZero() {
		start = l.clock()
	}
	holds := make([]int, n)
	for id, lease := range l.leases {
		if id == skip || !windowsOverlap(lease.Start, lease.End, start, end) {
			continue
		}
		for _, r := range lease.Nodes {
			if int(r) < n { // IDs from before a node-removing delta
				holds[r]++
			}
		}
	}
	free := sets.NewBitset(n)
	for r, h := range holds {
		if h == 0 || h < l.capLocked(graph.NodeID(r)) {
			free.Set(graph.NodeID(r))
		}
	}
	return free
}

// admitLocked refuses m unless it names each host once and every host has
// a free slot over [start, end) once lease skip's holds are set aside: the
// conflict rule of AllocateWindow, Renew and Replace.
func (l *Ledger) admitLocked(m []graph.NodeID, start, end time.Time, skip LeaseID) error {
	n := 0
	for _, r := range m {
		if r < 0 {
			return fmt.Errorf("service: mapping names negative host node %d", r)
		}
		n = max(n, int(r)+1)
	}
	seen := sets.NewBitset(n)
	for _, r := range m {
		if seen.Has(r) {
			return fmt.Errorf("service: mapping reserves host node %d twice", r)
		}
		seen.Set(r)
	}
	free := l.freeLocked(n, start, end, skip)
	for _, r := range m {
		if !free.Has(r) {
			return fmt.Errorf("%w: host node %d has all %d slot(s) leased", ErrConflict, r, l.capLocked(r))
		}
	}
	return nil
}

// ActiveLeases counts leases active right now.
func (l *Ledger) ActiveLeases() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	now := l.clock()
	for _, lease := range l.leases {
		if lease.active(now) {
			n++
		}
	}
	return n
}
