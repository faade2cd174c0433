package main

import (
	"os"
	"testing"

	"reuseiq/internal/analysis"
)

// TestReuselintSelfClean runs every analyzer over the real module and
// requires zero diagnostics: the simulator's own code must satisfy the
// invariants the analyzers enforce (with its waivers justified). The
// analyzers' ability to find violations is proven separately by the
// analysistest golden packages under internal/analysis/*/testdata.
func TestReuselintSelfClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(mod, analyzers(), mod.Packages)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		pos := mod.Position(f.Diagnostic.Pos)
		t.Errorf("%s: %s: %s", pos, f.Analyzer.Name, f.Diagnostic.Message)
	}
}

// TestAnalyzerRoster pins the gate's contents: adding an analyzer without
// updating this list (and the docs) should be a conscious act.
func TestAnalyzerRoster(t *testing.T) {
	want := map[string]bool{
		"zerocost":    true,
		"hotalloc":    true,
		"exhaustive":  true,
		"metricname":  true,
		"statecov":    true,
		"determinism": true,
	}
	got := analyzers()
	if len(got) != len(want) {
		t.Fatalf("analyzer count = %d, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if _, ok := waiverNames[a.Name]; !ok {
			t.Errorf("analyzer %q missing from the waiverNames stats table", a.Name)
		}
	}
}

// TestWaiverBudget pins the module's waiver counts exactly. A finding
// suppressed by a waiver is debt: adding one must be a conscious act (bump
// the number here, with the new waiver's justification in the diff), and
// removing one should be celebrated by shrinking the budget, not absorbed
// silently.
func TestWaiverBudget(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	budget := map[string]int{
		"allow-alloc":         4,
		"allow-nondet":        0,
		"allow-nonexhaustive": 0,
		"allow-unguarded":     4,
		"nowire":              0,
		"transient":           27,
	}
	for name, want := range budget {
		if got := countWaivers(mod, name); got != want {
			t.Errorf("//reuse:%s count = %d, want %d (update the budget deliberately)", name, got, want)
		}
	}
	// Every waiver the stats table knows about must be budgeted.
	for _, names := range waiverNames {
		for _, name := range names {
			if _, ok := budget[name]; !ok {
				t.Errorf("waiver %q has no pinned budget", name)
			}
		}
	}
}
