package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"netembed/internal/service"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples holds what each end-to-end median was taken over; it goes
	// into the ledger file, not into the driver's result line.
	samples map[string][]float64
}

// target is a booted system under test: one stack, or a cluster.
type target struct {
	url string
	st  *stack
	cl  *cluster
}

func (t *target) close() {
	if t.st != nil {
		t.st.close()
	}
	if t.cl != nil {
		t.cl.close()
	}
}

// stacks lists every single-process stack of the target (the shard
// stacks for a cluster), for summing their counters.
func (t *target) stacks() []*stack {
	if t.cl != nil {
		return t.cl.shards
	}
	return []*stack{t.st}
}

// hooks lets the traced pass interpose its wrappers at boot. The zero
// value boots the plain stack the untraced pass measures.
type hooks struct {
	handler      func(http.Handler) http.Handler // front server (stack or coordinator)
	shardHandler func(http.Handler) http.Handler // federated shard servers
	shard        func(service.Shard) service.Shard
}

// boot builds the system under test for fx and returns how long that
// took: host synthesis, index build, server start, managed-embedding
// placement and one health probe — everything an operator waits for
// before the first query. Request-body generation is the benchmark's
// own work and is not in it.
func boot(fx *fixture, hk hooks) (*target, time.Duration, error) {
	start := time.Now()
	host := fx.hostFn()
	t := &target{}
	if fx.federated {
		cl, err := newCluster(host, true, hk.shard, hk.shardHandler)
		if err != nil {
			return nil, 0, err
		}
		t.cl = cl
		if err := cl.serve(hk.handler); err != nil {
			t.close()
			return nil, 0, err
		}
		if err := cl.checkHealthy(); err != nil {
			t.close()
			return nil, 0, err
		}
		t.url = cl.url
	} else {
		t.st = newStack(host)
		if err := t.st.serve(hk.handler); err != nil {
			t.close()
			return nil, 0, err
		}
		t.url = t.st.url
	}
	hc := &http.Client{Timeout: defaultTimeout}
	defer hc.CloseIdleConnections()
	for _, o := range fx.placements {
		code, body, _, err := postOnce(hc, t.url+o.path, o.body)
		if err != nil || code != http.StatusCreated {
			t.close()
			return nil, 0, fmt.Errorf("placing managed embedding: status %d err %v body %s", code, err, body)
		}
	}
	resp, err := hc.Get(t.url + "/healthz")
	if err != nil {
		t.close()
		return nil, 0, err
	}
	resp.Body.Close()
	return t, time.Since(start), nil
}

// A run boots the system several times and reports the median set-up
// time: at least minBoots times, and for set-ups that take milliseconds
// (proof_hard's 45-node host) until minBootTime has been spent or
// maxBoots reached, so that the median of a sub-millisecond figure rests
// on more than five readings. The last boot is the one measured under
// load.
const (
	minBoots    = 5
	maxBoots    = 31
	minBootTime = 250 * time.Millisecond
)

func bootRepeated(fx *fixture, hk hooks) (*target, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		t, d, err := boot(fx, hk)
		if err != nil {
			return nil, nil, err
		}
		times, total = append(times, d.Seconds()), total+d
		if len(times) >= maxBoots || (len(times) >= minBoots && total >= minBootTime) {
			return t, times, nil
		}
		t.close()
	}
}

// Run shape: warm-up, then runWindows back-to-back windows (the issue's
// 5 s : 24 s proportion scaled to the requested run length). Timing
// metrics are computed over the keepWindows windows with the highest
// correct throughput, pooled. Interference on a shared machine is
// one-sided — a neighbour only ever slows a window down — and it comes
// in sub-second bursts that cover a third of some minutes, so dropping
// the slowest third measures the program rather than the neighbour
// (README: "Why the slowest windows are dropped"). Counts use every
// window.
const (
	runWindows  = 12
	keepWindows = 8
)

func runShape(seconds float64) (warm, window time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total * 5 / 29, total * 24 / 29 / runWindows
}

// windowStats is one measurement window's client-side view.
type windowStats struct {
	attempted, ok int
	latencies     []float64 // ms, every completed request
	byKind        [numKinds][]float64
}

// tally counts verdicts over the measured windows.
type tally struct {
	attempted, ok, noProof, http, invalid, wrong int
	reqBytes, respBytes                          int64
	span, spanNoProof, cross                     int
}

func (t *tally) failed() int { return t.http + t.invalid + t.wrong }

// summarize assigns samples to windows by completion time and tallies
// their verdicts.
func summarize(samples []sample, verdicts []verdict, edges []windowEdge) ([]windowStats, tally) {
	ws := make([]windowStats, len(edges)-1)
	var tl tally
	for i := range samples {
		s := &samples[i]
		w := sort.Search(len(edges), func(j int) bool { return edges[j].at > s.done }) - 1
		if w < 0 || w >= len(ws) {
			continue // warm-up, or completed after the last window closed
		}
		lat := ms(s.latency)
		ws[w].attempted++
		ws[w].latencies = append(ws[w].latencies, lat)
		ws[w].byKind[s.kind] = append(ws[w].byKind[s.kind], lat)
		tl.attempted++
		tl.reqBytes += int64(s.reqLen)
		tl.respBytes += int64(s.respLen)
		if s.kind == kSpan {
			tl.span++
		}
		if len(s.where) > 6 && s.where[:6] == "cross:" {
			tl.cross++
		}
		switch verdicts[i] {
		case vOK:
			ws[w].ok++
			tl.ok++
		case vNoProof:
			tl.noProof++
			if s.kind == kSpan {
				tl.spanNoProof++
			}
		case vHTTP:
			tl.http++
		case vInvalid:
			tl.invalid++
		case vWrong:
			tl.wrong++
		}
	}
	return ws, tl
}

// endToEnd computes the seven user-visible metrics. The second result
// holds the per-window values behind each figure (the set-up repeats for
// setup_s), which is what -compare reads a run's own spread from.
func endToEnd(ws []windowStats, tl tally, edges []windowEdge, setups []float64) (map[string]metric, map[string][]float64) {
	type window struct {
		dur, cpu, allocs float64
		st               *windowStats
	}
	wins := make([]window, len(ws))
	for w := range ws {
		wins[w] = window{
			dur:    (edges[w+1].at - edges[w].at).Seconds(),
			cpu:    ms(edges[w+1].cpu - edges[w].cpu),
			allocs: float64(edges[w+1].mallocs - edges[w].mallocs),
			st:     &ws[w],
		}
	}
	var allAllocs float64
	var allocs, answered []float64
	for _, w := range wins {
		allAllocs += w.allocs
		allocs = append(allocs, ratio(w.allocs, float64(w.st.ok)))
		answered = append(answered, ratio(float64(w.st.ok), float64(w.st.attempted)))
	}
	sort.SliceStable(wins, func(i, j int) bool { return float64(wins[i].st.ok)/wins[i].dur > float64(wins[j].st.ok)/wins[j].dur })
	if len(wins) > keepWindows {
		wins = wins[:keepWindows]
	}
	var dur, cpu float64
	var ok int
	var pooled, rps, p50, p90, cpus []float64
	for _, w := range wins {
		dur, cpu, ok = dur+w.dur, cpu+w.cpu, ok+w.st.ok
		pooled = append(pooled, w.st.latencies...)
		rps = append(rps, float64(w.st.ok)/w.dur)
		p50 = append(p50, quantile(w.st.latencies, 0.5))
		p90 = append(p90, quantile(w.st.latencies, 0.9))
		cpus = append(cpus, ratio(w.cpu, float64(w.st.ok)))
	}
	return map[string]metric{
			"setup_s":        {median(setups), "s"},
			"throughput_rps": {ratio(float64(ok), dur), "1/s"},
			"latency_p50_ms": {quantile(pooled, 0.5), "ms"},
			"latency_p90_ms": {quantile(pooled, 0.9), "ms"},
			"cpu_ms_per_op":  {ratio(cpu, float64(ok)), "ms"},
			"allocs_per_op":  {ratio(allAllocs, float64(tl.ok)), "count"},
			"answered_ratio": {ratio(float64(tl.ok), float64(tl.attempted)), "ratio"},
		}, map[string][]float64{
			"setup_s": setups, "throughput_rps": rps, "latency_p50_ms": p50, "latency_p90_ms": p90,
			"cpu_ms_per_op": cpus, "allocs_per_op": allocs, "answered_ratio": answered,
		}
}

// runUntraced is the end-to-end pass: plain stack, no wrappers.
func runUntraced(w workload, seed int64, seconds float64, sc scale) (*result, error) {
	fx, err := w.build(seed, sc)
	if err != nil {
		return nil, err
	}
	t, setups, err := bootRepeated(fx, hooks{})
	if err != nil {
		return nil, err
	}
	defer t.close()
	if fx.hot {
		if err := prime(t.url, fx); err != nil {
			return nil, err
		}
	}

	warm, window := runShape(seconds)
	run := newLoadRun(t.url, fx, w.clients, nil)
	stop := run.start()
	edges := run.measure(warm, window, runWindows)
	stop()

	samples := run.merged()
	verdicts := newChecker(fx).judge(samples)
	ws, tl := summarize(samples, verdicts, edges)
	metrics, medianOf := endToEnd(ws, tl, edges, setups)
	return &result{
		Correct:   tl.attempted > 0 && tl.failed() == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed(),
		Metrics:   metrics,
		samples:   medianOf,
	}, nil
}
