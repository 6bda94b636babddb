package service

import (
	"errors"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
)

// TestLedgerPrune pins the expiry sweep: a host saturated by a windowed
// lease frees up once the window ends, and Prune actually drops the
// expired record instead of leaving it to accumulate.
func TestLedgerPrune(t *testing.T) {
	l := NewLedger()
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return now })

	end := now.Add(time.Hour)
	id, err := l.AllocateWindow(core.Mapping{0, 1}, now, end)
	if err != nil {
		t.Fatal(err)
	}
	open, err := l.Allocate(core.Mapping{2}) // open-ended: must survive every prune
	if err != nil {
		t.Fatal(err)
	}

	if free := l.Free(4); free.Count() != 1 || !free.Has(3) {
		t.Fatalf("during window: free = %v, want just node 3", free.AppendTo(nil))
	}
	if pruned := l.Prune(now); len(pruned) != 0 {
		t.Fatalf("prune before expiry removed %v, want none", pruned)
	}
	if _, ok := l.Lease(id); !ok {
		t.Fatal("live windowed lease pruned")
	}

	// The window ends: the hosts free up and the sweep drops the record.
	now = end
	if free := l.Free(4); free.Count() != 3 || free.Has(2) {
		t.Fatalf("after window: free = %v, want all but node 2", free.AppendTo(nil))
	}
	if pruned := l.Prune(now); len(pruned) != 1 || pruned[0] != id {
		t.Fatalf("prune after expiry removed %v, want [%d]", pruned, id)
	}
	if _, ok := l.Lease(id); ok {
		t.Fatal("expired lease still present after Prune")
	}
	if _, ok := l.Lease(open); !ok {
		t.Fatal("open-ended lease wrongly pruned")
	}

	// The freed hosts are allocatable again.
	if _, err := l.AllocateWindow(core.Mapping{0, 1}, now, now.Add(time.Hour)); err != nil {
		t.Fatalf("re-allocating freed hosts: %v", err)
	}
}

// TestLedgerPruneIdempotent pins that repeated sweeps are safe and that
// prune counts accumulate one per expired lease.
func TestLedgerPruneIdempotent(t *testing.T) {
	l := NewLedger()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		win := base.Add(time.Duration(i) * time.Minute)
		if _, err := l.AllocateWindow(core.Mapping{graph.NodeID(i)}, win, win.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Prune(base.Add(3 * time.Minute)); len(got) != 3 {
		t.Fatalf("first sweep pruned %v, want 3 leases", got)
	}
	if got := l.Prune(base.Add(3 * time.Minute)); len(got) != 0 {
		t.Fatalf("second sweep pruned %v, want none", got)
	}
	if got := l.Prune(base.Add(time.Hour)); len(got) != 2 {
		t.Fatalf("final sweep pruned %v, want 2 leases", got)
	}
}

// TestLedgerEndedLeaseHoldsNothingBeforePrune: once a windowed lease's
// window has ended, its host is free and an open-ended Allocate on it
// succeeds, whether or not Prune has swept the record yet — a service
// without the engine tick never prunes at all.
func TestLedgerEndedLeaseHoldsNothingBeforePrune(t *testing.T) {
	l := NewLedger()
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return now })
	ended, err := l.AllocateWindow(core.Mapping{0}, now, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Allocate(core.Mapping{0}); !errors.Is(err, ErrConflict) {
		t.Fatalf("allocate during the window: %v, want a conflict", err)
	}
	now = now.Add(2 * time.Hour)
	if free := l.Free(1); !free.Has(0) {
		t.Fatal("an ended lease still holds its host")
	}
	if _, err := l.Allocate(core.Mapping{0}); err != nil {
		t.Fatalf("allocate after the window ended, before Prune: %v", err)
	}
	if _, ok := l.Lease(ended); !ok {
		t.Fatal("the ended lease was swept without Prune")
	}
}
