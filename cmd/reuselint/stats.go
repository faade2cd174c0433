package main

import (
	"fmt"
	"sort"
	"strings"

	"reuseiq/internal/analysis"
)

// waiverNames maps each analyzer to the waiver markers it honors. The
// stats output and the waiver-budget test both read this table, so a new
// waiver grammar must be registered here to be visible in `make lint-stats`
// and pinned against creep.
var waiverNames = map[string][]string{
	"determinism": {"allow-nondet"},
	"exhaustive":  {"allow-nonexhaustive"},
	"hotalloc":    {"allow-alloc"},
	"metricname":  {},
	"statecov":    {"transient", "nowire"},
	"zerocost":    {"allow-unguarded"},
}

// countWaivers counts the "//reuse:<name>" comments across the loaded
// module, with the same comment-start rule the analyzers use: the marker
// must begin the comment, so prose that merely mentions a marker does not
// count.
func countWaivers(mod *analysis.Module, name string) int {
	prefix := "//reuse:" + name
	n := 0
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, found := strings.CutPrefix(c.Text, prefix)
					if found && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
						n++
					}
				}
			}
		}
	}
	return n
}

// printStats renders the per-analyzer finding and waiver counts. Findings
// are zero on a clean tree; the waiver counts are the suppressed-finding
// budget, pinned by TestWaiverBudget so silent growth fails CI.
func printStats(mod *analysis.Module, findings []analysis.Finding) {
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer.Name]++
	}
	var names []string
	for _, a := range analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %9s  %s\n", "analyzer", "findings", "waivers")
	for _, name := range names {
		var parts []string
		for _, w := range waiverNames[name] {
			parts = append(parts, fmt.Sprintf("%s=%d", w, countWaivers(mod, w)))
		}
		detail := strings.Join(parts, " ")
		if detail == "" {
			detail = "-"
		}
		fmt.Printf("%-12s %9d  %s\n", name, byAnalyzer[name], detail)
	}
}
