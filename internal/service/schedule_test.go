package service

import (
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/topo"
)

// A lease can outlive the node it names: a node-removing delta shrinks
// the ID range under the ledger. Schedule must skip such IDs, as Embed
// and lifecycle repair do, instead of indexing past the snapshot.
func TestScheduleSkipsStaleLedgerIDs(t *testing.T) {
	host := topo.Clique(5)
	model := NewModel(host)
	svc := New(model, Config{})
	now := time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)
	svc.Ledger().SetClock(func() time.Time { return now })
	if _, err := svc.Ledger().AllocateWindow(core.Mapping{4}, now, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Apply(&graph.Delta{RemoveNodes: []string{host.Node(4).Name}}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Schedule(ScheduleRequest{Request: Request{Query: topo.Clique(3)}, Duration: 30 * time.Minute}, now)
	if err != nil {
		t.Fatal(err)
	}
	if resp.WindowsTried != 1 {
		t.Errorf("WindowsTried = %d, want 1: the stale lease holds no node of this snapshot", resp.WindowsTried)
	}
}

// Marking busy hosts must not copy the hosting network once per candidate
// window: at the default horizon and step an unsatisfiable request tries
// 145 windows, and all of them together have to allocate far less than
// 145 deep copies of the host would (the searches themselves allocate,
// twice as much under the race detector, hence the loose factor).
func TestScheduleDefaultHorizonDoesNotCloneTheHost(t *testing.T) {
	host := testHost(t, 40, 3)
	svc := New(NewModel(host), Config{})
	now := time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)
	svc.Ledger().SetClock(func() time.Time { return now })
	if _, err := svc.Ledger().AllocateWindow(core.Mapping{0, 1}, now, now.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	req := ScheduleRequest{
		Request:  Request{Query: topo.Clique(3), NodeConstraint: "rNode.noSuchAttr > 0"},
		Duration: time.Hour,
	}
	var err error
	schedule := testing.AllocsPerRun(1, func() { _, err = svc.Schedule(req, now) })
	if err != ErrNoWindow {
		t.Fatalf("err = %v, want ErrNoWindow after the whole horizon", err)
	}
	clone := testing.AllocsPerRun(1, func() { host.Clone() })
	t.Logf("145 windows: %.0f allocations; one host.Clone(): %.0f", schedule, clone)
	if schedule > 145*clone/4 {
		t.Errorf("Schedule made %.0f allocations over 145 windows, more than a quarter of 145 host clones (%.0f each)", schedule, clone)
	}
}
