package service

import (
	"errors"
	"sync/atomic"
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

// Hiding busy hosts must not copy the hosting network once per candidate
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

// cocktailParty is K_n minus a perfect matching: embedding K_{n/2+1} or
// larger is infeasible, but the search takes far longer than any test.
func cocktailParty(n int) *graph.Graph {
	g := graph.NewUndirected()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%2 == 1 || j != i+1 {
				g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), nil)
			}
		}
	}
	return g
}

// TestScheduleHonoursStop: the request's Stop hook reaches the window
// searches, and a stopped scan is not reported as ErrNoWindow.
func TestScheduleHonoursStop(t *testing.T) {
	svc := New(NewModel(cocktailParty(26)), Config{})
	var stop atomic.Bool
	req := ScheduleRequest{
		Request:  Request{Query: topo.Clique(14), Timeout: time.Minute, Stop: stop.Load},
		Duration: time.Hour,
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(req, time.Now())
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	select {
	case err := <-done:
		if !errors.Is(err, ErrScheduleBudget) {
			t.Fatalf("stopped scan: %v, want ErrScheduleBudget", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Schedule still searching 5s after its Stop hook fired")
	}
}

// TestScheduleChargesOneBudget: req.Timeout bounds the whole scan, not
// each of its windows. Every window's search here runs until stopped, so
// the scan ends after about one timeout and says the horizon was not
// searched.
func TestScheduleChargesOneBudget(t *testing.T) {
	svc := New(NewModel(cocktailParty(26)), Config{})
	req := ScheduleRequest{
		Request:  Request{Query: topo.Clique(14), Timeout: 200 * time.Millisecond},
		Duration: time.Hour,
		Horizon:  10 * time.Hour,
		Step:     time.Hour,
	}
	start := time.Now()
	_, err := svc.Schedule(req, start)
	if !errors.Is(err, ErrScheduleBudget) {
		t.Fatalf("err = %v, want ErrScheduleBudget", err)
	}
	if took := time.Since(start); took > 1500*time.Millisecond {
		t.Errorf("scan took %v on a 200ms budget", took)
	}
}

// TestScheduleUsesTheServiceDispatch: Schedule runs the algorithms Embed
// runs and refuses the ones whose answers it cannot lease.
func TestScheduleUsesTheServiceDispatch(t *testing.T) {
	svc := New(NewModel(topo.Clique(5)), Config{})
	now := time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)
	for _, algo := range []Algorithm{AlgoECF, AlgoRWB, AlgoLNS, AlgoParallelECF} {
		req := ScheduleRequest{Request: Request{Query: topo.Line(2), Algorithm: algo}, Duration: time.Minute}
		if _, err := svc.Schedule(req, now); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	for algo, want := range map[Algorithm]error{
		AlgoConsolidate: ErrUnsupportedAlgorithm,
		AlgoPathEmbed:   ErrUnsupportedAlgorithm,
		"no-such-algo":  ErrUnknownAlgorithm,
	} {
		req := ScheduleRequest{Request: Request{Query: topo.Line(2), Algorithm: algo}, Duration: time.Minute}
		if _, err := svc.Schedule(req, now); !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", algo, err, want)
		}
	}
}
