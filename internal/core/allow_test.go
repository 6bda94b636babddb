package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/sets"
	"netembed/internal/topo"
)

// Problem.Allow is a domain restriction every algorithm must honour. The
// oracle below never reads it: it enumerates the unrestricted problem by
// brute force and filters the result against the allow-sets itself, so no
// algorithm — and no code path of one — can pass by ignoring the seam.

// randomAllow restricts about two query nodes in three to a random half
// of the hosts and leaves the rest unrestricted.
func randomAllow(rng *rand.Rand, nq, nr int) []*sets.Bitset {
	allow := make([]*sets.Bitset, nq)
	for q := range allow {
		if rng.Intn(3) == 0 {
			continue
		}
		allow[q] = sets.NewBitset(nr)
		for r := 0; r < nr; r++ {
			if rng.Intn(2) == 0 {
				allow[q].Set(graph.NodeID(r))
			}
		}
	}
	return allow
}

// withinAllow keeps the mappings whose every image is in its allow-set.
func withinAllow(all []Mapping, allow []*sets.Bitset) []Mapping {
	var out []Mapping
next:
	for _, m := range all {
		for q, r := range m {
			if allow[q] != nil && !allow[q].Has(r) {
				continue next
			}
		}
		out = append(out, m)
	}
	return out
}

// TestAllowMatchesBruteForce: ECF, RWB, DynamicECF, ParallelECF and LNS
// return exactly the brute-force solutions that stay inside random
// allow-sets — with and without constraints, with the index-backed
// filter build and the scan.
func TestAllowMatchesBruteForce(t *testing.T) {
	algos := []struct {
		name string
		run  func(*Problem, Options) *Result
		opt  Options
	}{
		{"ecf", ECF, Options{}},
		{"rwb", RWB, Options{Seed: 11, MaxSolutions: 1 << 30}},
		{"dynamic", DynamicECF, Options{}},
		{"parallel", ParallelECF, Options{Workers: 3}},
		{"lns", LNS, Options{}},
	}
	restricted, emptied := 0, 0
	for ci, c := range oracleCases(t) {
		unrestricted := bruteForce(c.p, nil)
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		p := *c.p
		p.Allow = randomAllow(rng, p.Query.NumNodes(), p.Host.NumNodes())
		want := withinAllow(unrestricted, p.Allow)
		if len(want) < len(unrestricted) {
			restricted++
		}
		if len(want) == 0 && len(unrestricted) > 0 {
			emptied++
		}
		idx := index.Build(p.Host, 1, index.Config{})
		for _, ix := range []*index.Index{nil, idx} {
			for _, a := range algos {
				label := fmt.Sprintf("%s indexed=%v %s", c.label, ix != nil, a.name)
				opt := a.opt
				opt.Index = ix
				res := a.run(&p, opt)
				sameSolutionSets(t, label, res.Solutions, want)
				if res.Status != StatusComplete {
					t.Errorf("%s: status %v, want complete", label, res.Status)
				}
			}
		}
	}
	if restricted < 10 || emptied == 0 {
		t.Errorf("allow-sets cut the solution set on %d instances and emptied it on %d; the sweep needs both", restricted, emptied)
	}
}

// TestVerifyRejectsMappingOutsideAllow: a mapping valid for the problem
// stops verifying once an allow-set excludes one of its images.
func TestVerifyRejectsMappingOutsideAllow(t *testing.T) {
	p, err := NewProblem(topo.Line(3), topo.Clique(5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := Mapping{0, 1, 2}
	if err := p.Verify(m); err != nil {
		t.Fatalf("unrestricted: %v", err)
	}
	p.Allow = make([]*sets.Bitset, 3)
	p.Allow[1] = sets.FromSet(5, sets.Set{1, 3})
	if err := p.Verify(m); err != nil {
		t.Fatalf("image inside its allow-set rejected: %v", err)
	}
	p.Allow[1] = sets.FromSet(5, sets.Set{3, 4})
	if err := p.Verify(m); err == nil {
		t.Fatal("Verify accepted a mapping that leaves its allow-set")
	}
}

// TestConsolidateHonoursAllow: many-to-one packing goes through the same
// seam — no solution places a restricted node off its allow-set, and the
// restricted run finds exactly the unrestricted solutions that comply.
func TestConsolidateHonoursAllow(t *testing.T) {
	host := consHost(3, 2)
	q := lineQuery(4)
	p, err := NewConsolidatedProblem(q, host, ceilingConstraint, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := Consolidate(p, Options{}, ConsolidateOptions{}).Solutions
	p.Allow = make([]*sets.Bitset, q.NumNodes())
	p.Allow[0] = sets.FromSet(host.NumNodes(), sets.Set{2})
	p.Allow[3] = sets.FromSet(host.NumNodes(), sets.Set{0, 2})
	want := withinAllow(all, p.Allow)
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("fixture does not discriminate: %d of %d solutions comply", len(want), len(all))
	}
	res := Consolidate(p, Options{}, ConsolidateOptions{})
	sameSolutionSets(t, "consolidate", res.Solutions, want)
	for _, m := range res.Solutions {
		if err := p.VerifyConsolidated(m, ConsolidateOptions{}); err != nil {
			t.Fatalf("reported mapping fails verification: %v", err)
		}
	}
	outside := all[0]
	for _, m := range all {
		if m[0] != 2 {
			outside = m
		}
	}
	if err := p.VerifyConsolidated(outside, ConsolidateOptions{}); err == nil {
		t.Fatal("VerifyConsolidated accepted a mapping that leaves its allow-set")
	}
}

// TestPathEmbedHonoursAllow: PathEmbed and the path oracle both go
// through the seam.
func TestPathEmbedHonoursAllow(t *testing.T) {
	host := pathHost()
	p, err := NewProblem(topo.Line(2), host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := func(sols []PathSolution) []Mapping {
		out := make([]Mapping, len(sols))
		for i, s := range sols {
			out[i] = s.Nodes
		}
		return out
	}
	all := count(PathEmbed(p, PathOptions{MaxHops: 2}).Solutions)
	p.Allow = make([]*sets.Bitset, 2)
	p.Allow[0] = sets.FromSet(host.NumNodes(), sets.Set{0})
	want := withinAllow(all, p.Allow)
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("fixture does not discriminate: %d of %d solutions comply", len(want), len(all))
	}
	res := PathEmbed(p, PathOptions{MaxHops: 2})
	sameSolutionSets(t, "path", count(res.Solutions), want)
	checkPathEquivalence(t, "path allow", p, PathOptions{MaxHops: 2})
}
