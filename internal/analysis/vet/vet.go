// Package vet assembles the netembedvet analyzer suite: one place that
// both cmd/netembedvet and the integration tests use, so the checked
// contract set cannot drift between CI and the command line.
package vet

import (
	"netembed/internal/analysis"
	"netembed/internal/analysis/cowwrite"
	"netembed/internal/analysis/keycomplete"
	"netembed/internal/analysis/stoppoll"
	"netembed/internal/analysis/trailbalance"
)

// All returns fresh instances of every netembedvet analyzer, in the
// order they run. Instances are stateful (keycomplete accumulates
// annotation marks across packages), so each driver run gets its own.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		stoppoll.New(),
		trailbalance.New(),
		cowwrite.New(),
		keycomplete.New(),
	}
}
