package core

import (
	"fmt"
	"testing"
	"time"

	"netembed/internal/sets"
)

// TestPropagationIsPartitionIndependent pins what the ledger's count
// metrics rest on: whether propagation has armed depends only on the
// position inside a (root, second-level) subtree, so the proof_hard
// instance costs the same nodes, wipeouts and steals however many
// workers cut the tree. Without the depth ≤ 1 reset in forwardCheck a
// worker would carry its failure count from one stolen subtree into the
// next and the counts would follow the schedule.
//
// PruneOps is compared between pool sizes, and against sequential ECF
// net of the one thing the pool does differently: a stolen subtree
// replays its root's forward check (two row ANDs on a ring).
func TestPropagationIsPartitionIndependent(t *testing.T) {
	p := ringProblem(t, 16, 6, 7) // the ledger's proof_hard instance
	seq := ECF(p, Options{})
	if len(seq.Solutions) != 0 || seq.Status != StatusComplete {
		t.Fatalf("sequential: %d solutions, status %v; want a complete no-match", len(seq.Solutions), seq.Status)
	}
	if seq.Stats.NodesVisited > 864_269/10 {
		t.Errorf("sequential ECF visited %d nodes; armed propagation should leave fewer than a tenth of the 864,269 forward checking alone needs",
			seq.Stats.NodesVisited)
	}
	for rep := 0; rep < 20; rep++ {
		for _, workers := range []int{1, 2, 4, 8} {
			par := ParallelECF(p, Options{Workers: workers})
			label := fmt.Sprintf("rep %d workers %d", rep, workers)
			if len(par.Solutions) != 0 || par.Status != StatusComplete {
				t.Fatalf("%s: %d solutions, status %v", label, len(par.Solutions), par.Status)
			}
			if par.Stats.NodesVisited != seq.Stats.NodesVisited || par.Stats.Wipeouts != seq.Stats.Wipeouts {
				t.Fatalf("%s: %d nodes / %d wipeouts, sequential %d / %d", label,
					par.Stats.NodesVisited, par.Stats.Wipeouts, seq.Stats.NodesVisited, seq.Stats.Wipeouts)
			}
			if want := seq.Stats.PruneOps + 2*par.Stats.Steals; par.Stats.PruneOps != want {
				t.Fatalf("%s: %d prune ops with %d steals, want %d (sequential %d + 2 per steal)", label,
					par.Stats.PruneOps, par.Stats.Steals, want, seq.Stats.PruneOps)
			}
			if par.Stats.Steals != 15 { // the heavy root's 16 second-level subtrees, less the one kept
				t.Fatalf("%s: %d steals, want 15", label, par.Stats.Steals)
			}
		}
	}
}

// TestPropagationTrailBalance: whatever propagation deleted and charged
// to conflict rows is put back by the same unwind as the row prunes —
// after a search every domain, count and pastFC row is what it was
// before, and nothing is left on the trail, the arena or the worklist.
func TestPropagationTrailBalance(t *testing.T) {
	problems := map[string]*Problem{
		"ring(16,6,7)": ringProblem(t, 16, 6, 7),
		"ring(3,2,5)":  ringProblem(t, 3, 2, 5),
	}
	for seed := int64(1); seed <= 6; seed++ {
		problems[fmt.Sprintf("random seed %d", seed)] = oracleProblem(t, seed, seed%2 == 0, true)
	}
	for name, p := range problems {
		for _, th := range armThresholds {
			for _, dynamic := range []bool{false, true} {
				label := fmt.Sprintf("%s arm=%d dynamic=%v", name, th, dynamic)
				withArmAfter(th, func() {
					opt := Options{}
					f := BuildFilters(p, &opt)
					s := newFCSearcher(p, f, opt, nil, time.Now(), dynamic)
					var dom, past []*sets.Bitset
					for q := 0; q < s.nq; q++ {
						dom = append(dom, s.dom[q].Clone())
						past = append(past, s.pastFC[q].Clone())
					}
					counts := append([]int32(nil), s.domCount...)
					s.run()
					for q := 0; q < s.nq; q++ {
						if !s.dom[q].Equal(dom[q]) {
							t.Errorf("%s: domain of node %d not restored", label, q)
						}
						if !s.pastFC[q].Equal(past[q]) {
							t.Errorf("%s: pastFC row of node %d not restored", label, q)
						}
						if s.domCount[q] != counts[q] {
							t.Errorf("%s: domCount[%d] = %d, was %d", label, q, s.domCount[q], counts[q])
						}
						if s.acQueued[q] {
							t.Errorf("%s: node %d still marked queued", label, q)
						}
					}
					if len(s.trail) != 0 || len(s.arena) != 0 || len(s.acWork) != 0 {
						t.Errorf("%s: trail %d, arena %d, worklist %d entries left", label, len(s.trail), len(s.arena), len(s.acWork))
					}
					s.release()
					f.release()
				})
			}
		}
	}
}
