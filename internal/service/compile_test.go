package service

import "testing"

// The constraints the ledger's window workloads send: the delay window
// on every edge, and the node constraint that keeps a seeded node on a
// seeded host.
const (
	windowConstraint = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"
	seedConstraint   = "!has(vNode.seed) || has(rNode.seed)"
)

// TestCompileAllocBudget pins what compiling a request's constraints
// allocates: per program, the Program, its node slab, its operand slab
// and its references. Measured: 4 for the window, 8 with the seed
// constraint beside it; a heap node per operator, a heap operand list per
// operator and a growing reference list made 14 and 27. Compilation rents
// nothing from a pool, so a -race build counts the same.
func TestCompileAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name       string
		edge, node string
		budget     float64
	}{
		{"window", windowConstraint, "", 5},
		{"window+seed", windowConstraint, seedConstraint, 12},
	} {
		avg := testing.AllocsPerRun(100, func() {
			if _, _, err := CompilePrograms(c.edge, c.node); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op (budget %.0f)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("compiling the %s constraints allocates %.1f/op, budget %.0f — expr.Compile regressed", c.name, avg, c.budget)
		}
	}
}
