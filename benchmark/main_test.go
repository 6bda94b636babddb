package main

import (
	"bytes"
	"crypto/sha256"
	"regexp"
	"testing"
)

// smokeScale shrinks every fixture (40-site host, a handful of bodies,
// a small SkewedRing) so both passes of all five workloads run in seconds
// under -race. Nothing else about the program changes.
var smokeScale = scale{
	sites: 40, novelQueries: 40, hotBodies: 8, readBodies: 8, placements: 4,
	fedQueries: 40, ringM: 5, ringDecoys: 2, ringLen: 5, proofOps: 64,
	traceSample: map[string]int{
		"novel_constrained": 6, "repeat_hot": 20, "proof_hard": 6,
		"churn_mixed": 40, "federated": 6,
	},
	pathRequests: 2,
}

const smokeSeconds = 0.6

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts got holds exactly the declared metrics, each once
// (a map cannot hold one twice) and with its declared unit.
func checkEmitted(t *testing.T, pass string, declared []specMetric, got map[string]metric) {
	t.Helper()
	for _, m := range declared {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q does not match %s", pass, m.Name, nameRE)
		}
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", pass, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: %s emitted in %q, declared %q", pass, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(declared) {
		for name := range got {
			found := false
			for _, m := range declared {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", pass, name)
			}
		}
	}
}

// TestSmoke runs both passes of every workload at smoke scale and holds
// the program to BENCHMARK.json: same workloads, same metrics, same
// units, every answer correct.
func TestSmoke(t *testing.T) {
	traceDir = t.TempDir()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	if len(sp.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, layerMetrics %d", len(sp.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if i < len(sp.PerLayer) && (sp.PerLayer[i].Name != m.name || sp.PerLayer[i].Unit != m.unit || sp.PerLayer[i].Better != m.better) {
			t.Errorf("per_layer[%d] = %+v, layerMetrics has %+v", i, sp.PerLayer[i], m)
		}
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why differs)", i, sp.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runUntraced(w, 1, smokeSeconds, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", e2e.Correct, e2e.Attempted, e2e.Failed)
			}
			checkEmitted(t, "untraced", sp.EndToEnd, e2e.Metrics)
			for _, m := range sp.EndToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("untraced: %s = %v, end-to-end metrics are never 0", m.Name, e2e.Metrics[m.Name].Value)
				}
			}

			layers, err := runTraced(w, 1, smokeSeconds, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			if !layers.Correct || layers.Failed != 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d", layers.Correct, layers.Attempted, layers.Failed)
			}
			checkEmitted(t, "traced", sp.PerLayer, layers.Metrics)
			if layers.Metrics["client.invalid_mappings"].Value != 0 {
				t.Errorf("traced: %v invalid mappings", layers.Metrics["client.invalid_mappings"].Value)
			}

			// The work counters a later PR may rest a claim on
			// (choosing-metrics §8) must read exactly the same on two runs
			// of one seed, on the two workloads built around them.
			if w.name != "novel_constrained" && w.name != "proof_hard" {
				return
			}
			again, err := runTraced(w, 1, smokeSeconds, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"core.nodes_per_op", "core.filters_pairs_per_op"} {
				a, b := layers.Metrics[m].Value, again.Metrics[m].Value
				if a != b || a == 0 {
					t.Errorf("%s read %v then %v on the same seed", m, a, b)
				}
			}
		})
	}
}

// sequenceDigest hashes a fixture's op sequence, set-up bodies included.
func sequenceDigest(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	fx, err := w.build(seed, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, o := range append(append([]*op(nil), fx.placements...), fx.ops...) {
		h.Write([]byte(o.path))
		h.Write([]byte{byte(o.kind), byte(o.expect)})
		h.Write(o.body)
	}
	return h.Sum(nil)
}

// TestSameSeedSameSequence: the op sequence is a function of the seed.
func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, b, c := sequenceDigest(t, w, 7), sequenceDigest(t, w, 7), sequenceDigest(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different op sequences", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same op sequence", w.name)
		}
	}
}
