package engine

// HardHost is the cancellation fixture host (see hardHost).
var HardHost = hardHost

// JobRecords counts the engine's registered job records.
func JobRecords(e *Engine) int {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	return len(e.jobs)
}
