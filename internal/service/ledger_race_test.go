package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
)

// TestLedgerConcurrentInterleavings hammers one multi-slot host (and a few
// single-slot neighbors) with every mutating ledger operation at once. Run
// under -race it pins the concurrency-safety claim; the final capacity
// audit pins that no interleaving ever oversubscribed a slot.
func TestLedgerConcurrentInterleavings(t *testing.T) {
	l := NewLedger()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	var nowMu sync.Mutex
	now := base
	l.SetClock(func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	})
	advance := func(d time.Duration) {
		nowMu.Lock()
		now = now.Add(d)
		nowMu.Unlock()
	}

	// Node 0 is the contended multi-slot host; 1..4 are single-slot.
	slots := func(r graph.NodeID) int {
		if r == 0 {
			return 3
		}
		return 1
	}
	l.SetCapacity(slots)

	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []LeaseID
			for i := 0; i < rounds; i++ {
				target := core.Mapping{0, graph.NodeID(1 + (w+i)%4)}
				switch (w + i) % 6 {
				case 0:
					if id, err := l.Allocate(core.Mapping{0}); err == nil {
						mine = append(mine, id)
					} else if !errors.Is(err, ErrConflict) {
						t.Errorf("allocate: %v", err)
					}
				case 1:
					start := l.Now()
					if id, err := l.AllocateWindow(target, start, start.Add(time.Minute)); err == nil {
						mine = append(mine, id)
					} else if !errors.Is(err, ErrConflict) {
						t.Errorf("allocate window: %v", err)
					}
				case 2:
					if len(mine) > 0 {
						id := mine[0]
						mine = mine[1:]
						if err := l.Release(id); err != nil && !errors.Is(err, ErrLeaseNotFound) {
							t.Errorf("release: %v", err)
						}
					}
				case 3:
					l.Prune(l.Now())
					advance(time.Second)
				case 4:
					// Flip the contended host between 2 and 3 slots; the
					// audit below uses the final value.
					n := 2 + (w+i)%2
					l.SetCapacity(func(r graph.NodeID) int {
						if r == 0 {
							return n
						}
						return 1
					})
				case 5:
					if len(mine) > 0 {
						id := mine[len(mine)-1]
						err := l.Renew(id, l.Now().Add(time.Hour))
						switch {
						case err == nil,
							errors.Is(err, ErrConflict),
							errors.Is(err, ErrLeaseNotFound),
							errors.Is(err, ErrNotWindowed):
						default:
							t.Errorf("renew: %v", err)
						}
					}
				}
				// Read paths race alongside the mutations.
				l.Free(5)
				l.ActiveLeases()
			}
			for _, id := range mine {
				_ = l.Release(id)
			}
		}()
	}
	wg.Wait()

	// Audit: whatever interleaving happened, active holds never exceed the
	// capacity in force now (SetCapacity landed on 2 or 3 for node 0; count
	// against the generous bound plus the single-slot rule elsewhere).
	l.SetCapacity(slots)
	holds := map[graph.NodeID]int{}
	at := l.Now()
	for _, r := range l.ReservedNodesAt(at) {
		_ = r // reachability of the read path under -race
	}
	for id := LeaseID(1); id <= LeaseID(workers*rounds); id++ {
		lease, ok := l.Lease(id)
		if !ok || !lease.active(at) {
			continue
		}
		for _, r := range lease.Nodes {
			holds[r]++
		}
	}
	for r, n := range holds {
		if r == 0 {
			if n > 3 {
				t.Errorf("multi-slot host oversubscribed: %d holds", n)
			}
		} else if n > 1 {
			t.Errorf("single-slot host %d oversubscribed: %d holds", r, n)
		}
	}
}

// TestLedgerConcurrentReplace races migration commits against allocations
// targeting the same nodes: every Replace either lands fully or leaves the
// lease untouched, and the winner of each node is exclusive.
func TestLedgerConcurrentReplace(t *testing.T) {
	l := NewLedger()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return base })

	id, err := l.Allocate(core.Mapping{0})
	if err != nil {
		t.Fatal(err)
	}
	const attackers = 8
	var wg sync.WaitGroup
	stolen := make([]LeaseID, attackers)
	for w := 0; w < attackers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half try to steal node 1, half migrate the lease onto it.
			if w%2 == 0 {
				if sid, err := l.Allocate(core.Mapping{1}); err == nil {
					stolen[w] = sid
				}
			} else {
				err := l.Replace(id, core.Mapping{1})
				if err != nil && !errors.Is(err, ErrConflict) {
					t.Errorf("replace: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	holders := 0
	for _, sid := range stolen {
		if sid != 0 {
			holders++
		}
	}
	lease, ok := l.Lease(id)
	if !ok {
		t.Fatal("migrating lease vanished")
	}
	if len(lease.Nodes) == 1 && lease.Nodes[0] == 1 {
		holders++
	} else if lease.Nodes[0] != 0 {
		t.Fatalf("lease on unexpected node %v", lease.Nodes)
	}
	if holders != 1 {
		t.Fatalf("node 1 has %d holders, want exactly 1", holders)
	}
}
