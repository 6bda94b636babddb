package service

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/topo"
)

// reservedAttr and guardedNode are the tenancy oracle: the reservation
// mark an overlay host carried and the guard string appended to the node
// constraint to keep searches off marked hosts.
const reservedAttr = "reserved"

func guardedNode(src string) string {
	guard := "!has(rNode." + reservedAttr + ")"
	if src == "" {
		return guard
	}
	return "(" + src + ") && " + guard
}

// saturatedIn lists the hosts of g whose slots are all held by the known
// leases overlapping [start, end), a zero end being unbounded — the
// ledger's capacity rule restated from its leases, with start never open.
func saturatedIn(l *Ledger, ids []LeaseID, g *graph.Graph, start, end time.Time) []graph.NodeID {
	holds := make(map[graph.NodeID]int)
	for _, id := range ids {
		lease, ok := l.Lease(id)
		if !ok {
			continue
		}
		endsAfter := lease.End.IsZero() || lease.End.After(start)
		startsBefore := end.IsZero() || lease.Start.IsZero() || lease.Start.Before(end)
		if !endsAfter || !startsBefore {
			continue
		}
		for _, r := range lease.Nodes {
			holds[r]++
		}
	}
	var out []graph.NodeID
	for r := 0; r < g.NumNodes(); r++ {
		slots, _ := g.Node(graph.NodeID(r)).Attrs.Float(SlotsAttr)
		if h := holds[graph.NodeID(r)]; h > 0 && h >= max(1, int(slots)) {
			out = append(out, graph.NodeID(r))
		}
	}
	return out
}

// markedCopy stamps the reservation mark on ids through ApplyDelta.
func markedCopy(t *testing.T, g *graph.Graph, ids []graph.NodeID) *graph.Graph {
	t.Helper()
	if len(ids) == 0 {
		return g
	}
	d := &graph.Delta{}
	for _, r := range ids {
		d.SetNodeAttrs = append(d.SetNodeAttrs, graph.NodeAttrUpdate{
			Node: g.Node(r).Name, Set: graph.Attrs{}.SetBool(reservedAttr, true),
		})
	}
	marked, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return marked
}

// TestTenancyAllowSetMatchesMarkedOverlay replays a seeded random lease
// chain — allocations, windowed allocations, releases, replacements and
// renewals on hosts of 1–3 slots, with the clock moving — and after every
// step checks each ExcludeReserved Embed (every algorithm) and each
// Schedule against the oracle: the same request without exclusion on a
// copy of the host marked where the leases saturate it, under the guarded
// node constraint. Status, mappings in order, witness paths and the
// schedule start must all agree.
func TestTenancyAllowSetMatchesMarkedOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	host := testHost(t, 40, 7)
	for r := 0; r < host.NumNodes(); r++ {
		n := host.Node(graph.NodeID(r))
		n.Attrs = n.Attrs.SetNum(SlotsAttr, float64(1+rng.Intn(3)))
	}
	query, plant, err := topo.Subgraph(host, 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(query, 0.05)
	model := NewModel(host)
	svc := New(model, Config{})
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	led := svc.Ledger()
	led.SetClock(func() time.Time { return now })

	// Leases favour the planted witness and its neighbourhood, so the free
	// set keeps cutting into the answers.
	hot := append([]graph.NodeID(nil), plant...)
	for _, r := range plant {
		for _, a := range host.Arcs(r)[:min(2, len(host.Arcs(r)))] {
			hot = append(hot, a.To)
		}
	}
	pick := func() core.Mapping {
		var m core.Mapping
		for k := 1 + rng.Intn(3); len(m) < k; {
			r := graph.NodeID(rng.Intn(host.NumNodes()))
			if rng.Float64() < 0.7 {
				r = hot[rng.Intn(len(hot))]
			}
			if !slices.Contains(m, r) {
				m = append(m, r)
			}
		}
		return m
	}
	var leases []LeaseID
	some := func() (LeaseID, bool) {
		if len(leases) == 0 {
			return 0, false
		}
		return leases[rng.Intn(len(leases))], true
	}

	algos := []Algorithm{AlgoECF, AlgoRWB, AlgoLNS, AlgoParallelECF, AlgoConsolidate, AlgoPathEmbed}
	for step := 0; step < 40; step++ {
		switch rng.Intn(6) {
		case 0:
			if id, err := led.Allocate(pick()); err == nil {
				leases = append(leases, id)
			}
		case 1:
			start := now.Add(time.Duration(rng.Intn(5)-1) * 30 * time.Minute)
			if id, err := led.AllocateWindow(pick(), start, start.Add(time.Duration(1+rng.Intn(4))*30*time.Minute)); err == nil {
				leases = append(leases, id)
			}
		case 2:
			if id, ok := some(); ok {
				_ = led.Release(id) // released twice is ErrLeaseNotFound: fine
			}
		case 3:
			if id, ok := some(); ok {
				_ = led.Replace(id, pick()) // a conflict leaves the lease as it was
			}
		case 4:
			if id, ok := some(); ok {
				if lease, live := led.Lease(id); live && !lease.End.IsZero() {
					_ = led.Renew(id, lease.End.Add(time.Hour))
				}
			}
		case 5:
			now = now.Add(time.Duration(rng.Intn(4)) * 20 * time.Minute)
		}

		snap, idx, version := model.SnapshotIndexed()
		marked := markedCopy(t, snap, saturatedIn(led, leases, snap, now, time.Time{}))
		req := Request{Query: query, EdgeConstraint: delayWindowSrc, Timeout: 20 * time.Second, Seed: int64(step)}
		if step%2 == 1 {
			req.NodeConstraint = "rNode." + SlotsAttr + " >= 2"
		}
		if step%3 == 0 { // confined to the leased neighbourhood, schedules slide
			var names []string
			for _, r := range hot {
				names = append(names, snap.Node(r).Name)
			}
			req.Allow = map[string][]string{}
			for q := 0; q < query.NumNodes(); q++ {
				req.Allow[query.Node(graph.NodeID(q)).Name] = names
			}
		}
		for _, algo := range algos {
			req.Algorithm, req.MaxResults = algo, 5
			if algo == AlgoParallelECF {
				req.MaxResults = 0 // a capped parallel run may keep any members
			}
			label := fmt.Sprintf("step %d, %s", step, algo)
			excl := req
			excl.ExcludeReserved = true
			got, err := svc.embedOn(snap, idx, version, excl)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			oracle := req
			oracle.NodeConstraint = guardedNode(req.NodeConstraint)
			want, err := svc.embedOn(marked, idx, version, oracle)
			if err != nil {
				t.Fatalf("%s oracle: %v", label, err)
			}
			if got.Status != want.Status || !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Fatalf("%s: allow-set answer %v %v, overlay oracle %v %v", label, got.Status, got.Mappings, want.Status, want.Mappings)
			}
		}

		for _, algo := range []Algorithm{AlgoECF, AlgoRWB, AlgoLNS} {
			label := fmt.Sprintf("step %d, schedule %s", step, algo)
			sreq := ScheduleRequest{Request: req, Duration: time.Hour, Horizon: 3 * time.Hour, Step: 30 * time.Minute}
			sreq.Algorithm, sreq.MaxResults = algo, 0
			var wantStart time.Time
			var wantMapping core.Mapping
			for offset := time.Duration(0); offset <= sreq.Horizon; offset += sreq.Step {
				start := now.Add(offset)
				winMarked := markedCopy(t, snap, saturatedIn(led, leases, snap, start, start.Add(sreq.Duration)))
				oracle := sreq.Request
				oracle.NodeConstraint, oracle.MaxResults = guardedNode(req.NodeConstraint), 1
				resp, err := svc.embedOn(winMarked, nil, version, oracle)
				if err != nil {
					t.Fatalf("%s oracle: %v", label, err)
				}
				if len(resp.Mappings) > 0 {
					wantStart, wantMapping = start, resp.Mappings[0]
					break
				}
			}
			got, err := svc.Schedule(sreq, now)
			switch {
			case wantMapping == nil && !errors.Is(err, ErrNoWindow):
				t.Fatalf("%s: got %+v, %v; the oracle finds no window", label, got, err)
			case wantMapping == nil:
			case err != nil:
				t.Fatalf("%s: %v; the oracle schedules %v at %v", label, err, wantMapping, wantStart)
			case !got.Start.Equal(wantStart) || !reflect.DeepEqual(got.Mapping, wantMapping):
				t.Fatalf("%s: scheduled %v at %v, the oracle %v at %v", label, got.Mapping, got.Start, wantMapping, wantStart)
			default:
				if err := led.Release(got.Lease); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestExcludeReservedAllocsFlat: hiding leased hosts costs an Embed a
// fixed handful of allocations — the ledger's hold scan and the shared
// free set — whatever the number of leases, on the paper-sized host.
func TestExcludeReservedAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector roughly doubles allocation counts")
	}
	host := testHost(t, 296, 1)
	query, plant, err := topo.Subgraph(host, 8, 12, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	topo.WidenDelayWindows(query, 0.1)
	model := NewModel(host)
	svc := New(model, Config{})
	req := Request{Query: query, EdgeConstraint: delayWindowSrc, MaxResults: 1}
	embed := func(req Request) {
		resp, err := svc.Embed(req)
		if err != nil || len(resp.Mappings) != 1 {
			t.Fatalf("embed: %+v, %v", resp, err)
		}
	}
	embed(req) // builds the snapshot's columns and arms their range indexes
	base := testing.AllocsPerRun(20, func() { embed(req) })
	excl := req
	excl.ExcludeReserved = true
	leased := 0
	for _, want := range []int{0, 64, 256} {
		for r := 0; leased < want; r++ {
			if slices.Contains(plant, graph.NodeID(r)) {
				continue
			}
			if _, err := svc.Ledger().Allocate(core.Mapping{graph.NodeID(r)}); err == nil {
				leased++
			}
		}
		got := testing.AllocsPerRun(20, func() { embed(excl) })
		t.Logf("%d leases: %.0f allocs per excluding Embed, %.0f without exclusion", leased, got, base)
		if got > base+5 || got < base-5 {
			t.Errorf("%d leases: %.0f allocs per excluding Embed, want within 5 of %.0f", leased, got, base)
		}
	}
}
