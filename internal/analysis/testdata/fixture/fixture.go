// Package fixture seeds exactly one violation per netembedvet analyzer.
// The integration test runs the real multichecker binary over this
// module and asserts the exit status and every diagnostic position.
// Each seeded line carries a `// seed:<analyzer>` marker the test reads
// back, so the expectations survive edits to this file.
package fixture

// --- stoppoll: a deadline-capable recursive search that never polls.

type searcher struct{ deadline int64 }

func (s *searcher) checkDeadline() bool { return s.deadline == 0 }

func (s *searcher) badSearch(depth int) int {
	if depth > 4 {
		return depth
	}
	return s.badSearch(depth+1) + 1 // seed:stoppoll
}

// --- trailbalance: a SaveSpan whose undo mark is discarded.

type trail struct{ depth int }

func (t *trail) SaveSpan() int   { t.depth++; return t.depth }
func (t *trail) RestoreSpan(int) { t.depth-- }

func discardSave(t *trail) {
	t.SaveSpan() // seed:trailbalance
	t.RestoreSpan(0)
}

// --- cowwrite: an element write through shared storage, no clone.

type snap struct {
	rows []int //cow:shared
}

func badWrite(s *snap, i, v int) {
	s.rows[i] = v // seed:cowwrite
}

// --- keycomplete: a fingerprint that forgets a field.

type request struct {
	Name string
	Size int
}

//keycomplete:fingerprint fixture.request
func badKey(r request) int { // seed:keycomplete
	return len(r.Name)
}

var sink = badKey(request{}) + badWrite2()

func badWrite2() int {
	s := &snap{rows: make([]int, 4)}
	badWrite(s, 1, 2)
	discardSave(&trail{})
	return (&searcher{deadline: 1}).badSearch(0)
}
