package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/service"
	"netembed/internal/service/httpapi"
	"netembed/internal/trace"
)

// TestHistogramQuantilesAgainstSort checks the log-bucketed quantiles
// against exact sorted-sample quantiles: every reported quantile must sit
// at or above the true value and within the bucketing scheme's relative
// error (2^-subBits, ~3.2%).
func TestHistogramQuantilesAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		var h histogram
		samples := make([]uint64, 0, 20000)
		for i := 0; i < 20000; i++ {
			// Log-uniform latencies: 1µs .. ~1s, the serve path's range.
			v := uint64(1000 * (1 + rng.ExpFloat64()*float64(rng.Intn(1000))))
			samples = append(samples, v)
			h.record(time.Duration(v))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			idx := int(q*float64(len(samples))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := samples[idx]
			got := h.quantile(q)
			if got < exact {
				t.Errorf("trial %d q%.3f: histogram %d below exact %d", trial, q, got, exact)
			}
			if maxErr := float64(exact) * (1 + 1.0/subBuckets); float64(got) > maxErr+1 {
				t.Errorf("trial %d q%.3f: histogram %d exceeds exact %d by more than the bucket error", trial, q, got, exact)
			}
		}
		if h.quantile(1.0) != h.max {
			t.Errorf("q1.0 = %d, want max %d", h.quantile(1.0), h.max)
		}
	}
}

// TestHistogramMerge pins that merging per-worker histograms is exactly
// equivalent to recording everything into one.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole histogram
	parts := make([]histogram, 4)
	for i := 0; i < 10000; i++ {
		v := time.Duration(rng.Intn(1_000_000_000))
		whole.record(v)
		parts[i%4].record(v)
	}
	var merged histogram
	for i := range parts {
		merged.merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged histogram differs from whole-stream histogram")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back into that bucket, and
	// bucket indices must be monotone in the value.
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 + 12345, 1 << 62} {
		b := bucketOf(v)
		if b < prev {
			t.Errorf("bucketOf(%d) = %d, below previous bucket %d", v, b, prev)
		}
		prev = b
		if up := bucketUpper(b); bucketOf(up) != b {
			t.Errorf("bucketUpper(%d) = %d maps to bucket %d", b, up, bucketOf(up))
		}
		if up := bucketUpper(b); up < v {
			t.Errorf("bucketUpper(%d) = %d < recorded value %d", b, up, v)
		}
	}
}

func TestMixWeights(t *testing.T) {
	w, err := mixWeights("embed=50,jobs=25,delta=25")
	if err != nil {
		t.Fatal(err)
	}
	if w[opEmbed] != 0.5 || w[opJobs] != 0.25 || w[opDelta] != 0.25 || w[opBatch] != 0 {
		t.Fatalf("weights = %v", w)
	}
	for _, bad := range []string{"", "embed", "warp=1", "embed=-1", "embed=0"} {
		if _, err := mixWeights(bad); err == nil {
			t.Errorf("mix %q: expected error", bad)
		}
	}
}

// TestRunEndToEnd drives the full harness against an in-process server:
// every op kind must complete, the report must carry sane quantiles, the
// server section must see the extended /stats gauges, and the JSON
// report must round-trip.
func TestRunEndToEnd(t *testing.T) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 30}, rand.New(rand.NewSource(1)))
	model := service.NewModel(host)
	svc := service.New(model, service.Config{})
	eng := engine.New(svc, engine.Config{Workers: 2, QueueDepth: 64, CacheCapacity: 64})
	defer eng.Close(context.Background())
	ts := httptest.NewServer(httpapi.NewWithEngine(svc, eng))
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "LOAD_test.json")
	cfg := defaultConfig()
	cfg.Addr = ts.URL
	cfg.Duration = 1500 * time.Millisecond
	cfg.RPS = 120
	cfg.Arrival = "fixed"
	cfg.Workers = 8
	cfg.QueryVariants = 3
	cfg.QueryNodes = 5
	cfg.QueryEdges = 6
	cfg.Out = out

	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Count == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Overall.Errors > 0 {
		t.Errorf("%d errors against a healthy server: %+v", rep.Overall.Errors, rep.PerOp)
	}
	for _, op := range []string{"embed", "batch", "path", "jobs", "delta", "optimize"} {
		r, ok := rep.PerOp[op]
		if !ok || r.Count == 0 {
			t.Errorf("op %s: no completions (report %+v)", op, rep.PerOp[op])
		}
	}
	o := rep.Overall
	if !(o.P50Ns <= o.P95Ns && o.P95Ns <= o.P99Ns && o.P99Ns <= o.P999Ns && o.P999Ns <= o.MaxNs) {
		t.Errorf("quantiles not monotone: %+v", o)
	}
	if o.P50Ns == 0 {
		t.Error("p50 is zero")
	}
	if rep.Server.CompletedDelta == 0 {
		t.Error("server stats saw no completed jobs — /stats diff broken")
	}
	if rep.Server.MallocsDelta == 0 {
		t.Error("server runtime section missing — mallocs delta is zero")
	}
	if rep.Server.AllocsPerRequest <= 0 {
		t.Errorf("allocsPerRequest = %v, want > 0", rep.Server.AllocsPerRequest)
	}
	// Delta churn must have published new model versions; retirement of a
	// specific epoch depends on a reader straddling a bump (covered
	// deterministically by the service package's epoch soak test), so here
	// only the plumbing of the model section is asserted.
	if rep.Server.ModelVersion <= 1 {
		t.Errorf("model version %d after delta churn, want > 1", rep.Server.ModelVersion)
	}

	// The machine-readable report round-trips and matches what run
	// returned.
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != "netembedload/3" || back.Overall.Count != rep.Overall.Count {
		t.Errorf("report round trip mismatch: %+v vs %+v", back.Overall, rep.Overall)
	}
}

// TestRunAgainstCoordinator drives the harness in -target mode against
// an in-process federated tier: the load flows through the coordinator's
// /embed + /deltas, the workload derives from the -host file, and the
// report's server section must carry the per-shard routing breakdown.
func TestRunAgainstCoordinator(t *testing.T) {
	host := graph.NewUndirected()
	attrs := func(d float64) graph.Attrs {
		return graph.Attrs{}.
			SetNum("minDelay", d*0.9).SetNum("avgDelay", d).SetNum("maxDelay", d*1.1)
	}
	for i := 0; i < 6; i++ {
		g := "west"
		if i >= 3 {
			g = "east"
		}
		host.AddNode("", graph.Attrs{}.SetStr("region", g))
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			host.MustAddEdge(graph.NodeID(a), graph.NodeID(b), attrs(10))
			host.MustAddEdge(graph.NodeID(3+a), graph.NodeID(3+b), attrs(10))
		}
	}
	host.MustAddEdge(0, 3, attrs(200))

	coord, err := service.NewFederation(host, "region", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewClusterServer(coord))
	defer ts.Close()

	hostML, err := graphml.EncodeString(host)
	if err != nil {
		t.Fatal(err)
	}
	hostPath := filepath.Join(t.TempDir(), "host.graphml")
	if err := os.WriteFile(hostPath, []byte(hostML), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := defaultConfig()
	cfg.Target = ts.URL
	cfg.HostPath = hostPath
	cfg.Duration = 1200 * time.Millisecond
	cfg.RPS = 60
	cfg.Arrival = "fixed"
	cfg.Workers = 4
	cfg.Mix = "embed=70,delta=30"
	cfg.QueryVariants = 3
	cfg.QueryNodes = 3
	cfg.QueryEdges = 3

	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "netembedload/3" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Overall.Count == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Overall.Errors > 0 {
		t.Errorf("%d errors against a healthy tier: %+v", rep.Overall.Errors, rep.PerOp)
	}
	if len(rep.Server.Shards) != 2 {
		t.Fatalf("shard breakdown = %+v, want 2 shards", rep.Server.Shards)
	}
	var embeds uint64
	for _, s := range rep.Server.Shards {
		if !s.Healthy {
			t.Errorf("shard %s unhealthy after the run", s.Name)
		}
		embeds += s.EmbedsDelta
	}
	if embeds == 0 {
		t.Error("no embeds routed to any shard")
	}
	if rep.Server.CompletedDelta == 0 {
		t.Error("completedDelta zero in federated mode")
	}

	// -target without -host cannot derive a workload.
	bad := cfg
	bad.HostPath = ""
	if _, err := run(bad); err == nil {
		t.Error("-target without -host accepted")
	}
}
