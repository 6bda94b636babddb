package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"netembed/internal/sets"
)

// cpuTime returns the process's user+system CPU time so far. Unlike wall
// time it does not grow while a noisy neighbour holds the core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs reads the cumulative heap-object allocation count. It stops the
// world briefly, so callers sample it at window edges only.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuModel names the processor for the result file's provenance block.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit names the measured commit when the tree is a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// calibrationKernel times the fixed pure-CPU reference every result is
// printed beside (ROADMAP item 1a): AND+popcount over a 1 MiB arena of
// bitset words, reported in ns per 1024 words. It touches no repository
// state, so a change in it is a change of machine, not of code. The
// fastest of the samples is reported: interference only ever adds time,
// so the minimum is the reading that says most about the machine and
// least about its neighbours.
func calibrationKernel() float64 {
	const bits = 1 << 22 // 65,536 words per operand
	a, b := sets.NewBitset(bits), sets.NewBitset(bits)
	for x := int32(0); x < bits; x += 3 {
		a.Set(x)
	}
	for x := int32(0); x < bits; x += 5 {
		b.Set(x)
	}
	const kwordsPerPass = bits / 64 / 1024
	best := math.Inf(1)
	sink := 0
	for i := 0; i < 60; i++ {
		start := time.Now()
		for pass := 0; pass < 4; pass++ {
			sink += a.IntersectCount(b)
		}
		best = min(best, float64(time.Since(start).Nanoseconds())/(4*kwordsPerPass))
	}
	if sink == 0 {
		return 0
	}
	return best
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by nearest rank (0 on empty input).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
