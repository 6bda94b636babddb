// Command netembedvet is the repo-invariant checker: a multichecker
// over the four netembedvet analyzers (stoppoll, trailbalance,
// cowwrite, keycomplete) that mechanically enforce the cancellation,
// trail, COW-snapshot and cache-fingerprint contracts this codebase's
// PRs have each shipped a bug against at least once.
//
// Usage:
//
//	go run ./cmd/netembedvet ./...
//
// Exit status is 0 when the tree is clean, 1 on any unsuppressed
// finding, 2 on a driver failure (a package that does not load or
// type-check). Findings print as file:line:col: message (analyzer).
//
// Suppressions: a finding is silenced by
//
//	//netembedvet:allow <analyzer> <reason>
//
// on the reported line, the line above it, or in the doc comment of
// the enclosing declaration. The reason is mandatory — a bare allow
// suppresses nothing. Run over ./... (not a sub-package) so analyzers
// that read annotations from defining packages see the whole module.
package main

import (
	"flag"
	"fmt"
	"os"

	"netembed/internal/analysis/driver"
	"netembed/internal/analysis/vet"
)

func main() {
	dir := flag.String("C", ".", "module directory to analyze from")
	list := flag.Bool("list", false, "print the analyzer names and contracts, then exit")
	flag.Parse()

	if *list {
		for _, az := range vet.All() {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := driver.Run(*dir, patterns, vet.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "netembedvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "netembedvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
