// P2P: place the directory nodes of a distributed hash table (§III
// scenario 2). The lookup ring needs moderate pairwise delays between
// successive directory nodes and enough CPU on every node; the service
// API is used end to end, including the monitoring feed that keeps the
// model fresh between queries.
//
// Run with: go run ./examples/p2p
package main

import (
	"fmt"
	"log"
	"time"

	"netembed"
)

func main() {
	host := netembed.SyntheticPlanetLab(netembed.TraceConfig{}, netembed.NewRand(1))
	model := netembed.NewModel(host)
	svc := netembed.NewService(model, netembed.ServiceConfig{DefaultTimeout: 10 * time.Second})

	// A simulated monitoring feed re-measures 10% of the links: queries
	// always run against the newest snapshot (model versions advance).
	monitor := netembed.NewMonitor(model, netembed.MonitorConfig{Seed: 2})
	monitor.Step()
	monitor.Step()

	// The DHT ring: 8 directory nodes, successor links below 175ms so
	// lookups stay fast, and a CPU floor on every node.
	ring := netembed.Ring(8)
	netembed.SetDelayWindow(ring, 25, 175)
	for i := 0; i < ring.NumNodes(); i++ {
		ring.Node(netembed.NodeID(i)).Attrs =
			ring.Node(netembed.NodeID(i)).Attrs.SetNum("cpu", 4)
	}

	resp, err := svc.Embed(netembed.Request{
		Query:          ring,
		EdgeConstraint: "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay",
		NodeConstraint: "vNode.cpu <= rNode.cpu",
		Algorithm:      netembed.AlgoRWB, // any single placement will do
		Seed:           7,
		MaxResults:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(resp.Named) == 0 {
		log.Fatalf("no feasible ring placement (status %s)", resp.Status)
	}

	fmt.Printf("model version answered against: v%d\n", resp.ModelVersion)
	fmt.Printf("status: %s, elapsed %v\n\n", resp.Status, resp.Elapsed.Round(time.Millisecond))
	fmt.Println("DHT directory ring placement:")
	snap := model.Acquire()
	cur := snap.Host()
	for i := 0; i < ring.NumNodes(); i++ {
		qName := ring.Node(netembed.NodeID(i)).Name
		rName := resp.Named[0][qName]
		rid, _ := cur.NodeByName(rName)
		cpu, _ := cur.Node(rid).Attrs.Float("cpu")
		region, _ := cur.Node(rid).Attrs.Text("region")
		fmt.Printf("  %-3s -> %-8s (cpu %.0f, %s)\n", qName, rName, cpu, region)
	}
	snap.Release()

	// Reserve the placement so the next application steers clear of it.
	lease, err := svc.Ledger().Allocate(resp.Mappings[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreserved under lease %d; nodes now reserved: %d\n",
		lease, len(svc.Ledger().ReservedNodes()))

	// A second ring must land on disjoint machines.
	resp2, err := svc.Embed(netembed.Request{
		Query:           ring,
		EdgeConstraint:  "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay",
		NodeConstraint:  "vNode.cpu <= rNode.cpu",
		Algorithm:       netembed.AlgoRWB,
		Seed:            8,
		MaxResults:      1,
		ExcludeReserved: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(resp2.Mappings) == 0 {
		log.Fatalf("no second placement (status %s)", resp2.Status)
	}
	overlap := 0
	used := map[netembed.NodeID]bool{}
	for _, r := range resp.Mappings[0] {
		used[r] = true
	}
	for _, r := range resp2.Mappings[0] {
		if used[r] {
			overlap++
		}
	}
	fmt.Printf("second ring placed on %d nodes, overlap with the first: %d (must be 0)\n",
		len(resp2.Mappings[0]), overlap)
}
