package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestStatCountersCoverStats: every int64 field of Stats is one counter,
// listed exactly once under its field name in lower camel case, and the
// names are sorted and unique. A field added without a list entry fails
// here.
func TestStatCountersCoverStats(t *testing.T) {
	var zero Stats
	var names []string
	for _, c := range zero.Counters() {
		names = append(names, c.Name)
	}
	if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Fatalf("counter names not sorted and unique: %v", names)
	}
	typ := reflect.TypeFor[Stats]()
	fields := 0
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type != reflect.TypeFor[int64]() {
			continue
		}
		fields++
		want := strings.ToLower(f.Name[:1]) + f.Name[1:]
		var st Stats
		reflect.ValueOf(&st).Elem().Field(i).SetInt(1)
		var hits []string
		for _, c := range st.Counters() {
			if c.Value != 0 {
				hits = append(hits, c.Name)
			}
		}
		if len(hits) != 1 || hits[0] != want {
			t.Errorf("field %s shows as counters %v, want exactly [%s]", f.Name, hits, want)
		}
		var set Stats
		set.SetCounter(want, 1)
		if set != st {
			t.Errorf("SetCounter(%q) set %+v, want field %s", want, set, f.Name)
		}
	}
	if fields != len(names) {
		t.Errorf("Stats has %d int64 fields, the counter list %d", fields, len(names))
	}
}

// TestStatsAddSumsCountersOnly: Add sums every counter and leaves the
// durations alone.
func TestStatsAddSumsCountersOnly(t *testing.T) {
	fill := func(base int64) Stats {
		st := Stats{FilterBuild: time.Duration(base), TimeToFirst: time.Duration(base), Elapsed: time.Duration(base)}
		v := reflect.ValueOf(&st).Elem()
		for i := range v.NumField() {
			if f := v.Field(i); f.Type() == reflect.TypeFor[int64]() {
				f.SetInt(base * int64(i+1))
			}
		}
		return st
	}
	got, want := fill(1), fill(101)
	add := fill(100)
	got.Add(&add)
	want.FilterBuild, want.TimeToFirst, want.Elapsed = 1, 1, 1
	if got != want {
		t.Errorf("Add:\n got %+v\nwant %+v", got, want)
	}
}

// TestParallelFilterCountersMatchECF: the pool counts the filter build
// once, however many workers it runs, so ParallelECF reports sequential
// ECF's filter-build counters.
func TestParallelFilterCountersMatchECF(t *testing.T) {
	evaluated := false
	for seed := int64(1); seed <= 6; seed++ {
		p := smallProblem(t, seed)
		seq := ECF(p, Options{})
		evaluated = evaluated || seq.Stats.EdgePairsEval > 0
		for workers := 1; workers <= 4; workers++ {
			par := ParallelECF(p, Options{Workers: workers})
			label := fmt.Sprintf("seed %d workers %d", seed, workers)
			if par.Stats.EdgePairsEval != seq.Stats.EdgePairsEval || par.Stats.FilterEntries != seq.Stats.FilterEntries {
				t.Errorf("%s: edgePairsEval/filterEntries %d/%d, ECF %d/%d", label,
					par.Stats.EdgePairsEval, par.Stats.FilterEntries, seq.Stats.EdgePairsEval, seq.Stats.FilterEntries)
			}
		}
	}
	if !evaluated {
		t.Fatal("no problem evaluated an edge constraint")
	}
}
