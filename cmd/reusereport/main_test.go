package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reuseiq/internal/cell"
	"reuseiq/internal/runstore"
)

// writeLedger builds a ledger file with three fingerprint-identical runs of
// one config and one run of another, with a deliberate +1 drift injectable
// into the last record's modeled counter.
func writeLedger(t *testing.T, drift bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	led, err := runstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	mk := func(id, fp string, reuse bool, dispatches uint64, wall int64) runstore.Record {
		return runstore.Record{
			ID: id, Kind: runstore.KindSim, Spec: cell.Spec{Kernel: "aps", IQSize: 64, Reuse: reuse},
			Fingerprint: fp, Cycles: 1000, Commits: 1500, IPC: 1.5,
			Metrics: runstore.Metrics{Counters: []runstore.Counter{
				{Name: "iq.dispatches", Value: dispatches},
				{Name: "sim.commits", Value: 1500},
				{Name: "sim.cycles", Value: 1000},
			}},
			Energy: map[string]float64{"issueq": 10, "total": 25},
			Host:   runstore.Host{WallNS: wall},
		}
	}
	fpA := "1111111111111111:2222222222222222"
	fpB := "3333333333333333:2222222222222222"
	recs := []runstore.Record{
		mk("aaaa000000000001", fpA, true, 2600, 5_000_000),
		mk("aaaa000000000002", fpA, true, 2600, 5_100_000),
		mk("aaaa000000000003", fpA, true, 2600, 5_050_000),
		mk("bbbb000000000001", fpB, false, 4000, 9_000_000),
	}
	if drift {
		recs[2].Metrics.Counters[0].Value = 2601
	}
	for i := range recs {
		if err := led.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := mainImpl(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListAndShow(t *testing.T) {
	path := writeLedger(t, false)
	code, out, _ := run(t, "-ledger", path, "list")
	if code != 0 {
		t.Fatalf("list exit %d", code)
	}
	if !strings.Contains(out, "4 run(s)") || !strings.Contains(out, "aaaa0000") {
		t.Errorf("list output:\n%s", out)
	}
	code, out, _ = run(t, "-ledger", path, "list", "reuse=false")
	if code != 0 || !strings.Contains(out, "1 run(s)") {
		t.Errorf("filtered list (exit %d):\n%s", code, out)
	}

	code, out, _ = run(t, "-ledger", path, "show", "bbbb0000")
	if code != 0 {
		t.Fatalf("show exit %d", code)
	}
	for _, want := range []string{"bbbb000000000001", "3333333333333333:2222222222222222", "iq.dispatches", "4000"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}

	if code, _, _ = run(t, "-ledger", path, "show", "aaaa"); code != 2 {
		t.Errorf("ambiguous show exit %d, want 2", code)
	}
}

// TestDiffTable pins the rendered diff: a baseline-vs-reuse set diff must
// show the changed counter with its true delta and percentage, aligned in
// the header's columns.
func TestDiffTable(t *testing.T) {
	path := writeLedger(t, false)
	code, out, _ := run(t, "-ledger", path, "diff", "reuse=false", "reuse=true")
	if code != 0 {
		t.Fatalf("diff exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "metric") || !strings.Contains(out, "delta") {
		t.Errorf("diff table header missing:\n%s", out)
	}
	// A = 4000 (baseline), B = mean of three identical 2600s; -35%.
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "iq.dispatches") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("iq.dispatches row missing:\n%s", out)
	}
	for _, want := range []string{"4000", "2600", "-1400", "-35.00%"} {
		if !strings.Contains(line, want) {
			t.Errorf("diff row missing %q: %q", want, line)
		}
	}
	// Unchanged-by-default: sim.commits (identical on both sides) is hidden
	// without -all, shown with it.
	if strings.Contains(out, "sim.commits") {
		t.Errorf("unchanged metric shown without -all:\n%s", out)
	}
	_, outAll, _ := run(t, "-ledger", path, "diff", "-all", "reuse=false", "reuse=true")
	if !strings.Contains(outAll, "sim.commits") {
		t.Errorf("-all hides unchanged metric:\n%s", outAll)
	}
}

// TestCheckExitCodes pins the sentinel gate: exit 0 on fingerprint-identical
// repeats, exit 1 when one modeled counter drifts by a single count.
func TestCheckExitCodes(t *testing.T) {
	clean := writeLedger(t, false)
	code, out, _ := run(t, "-ledger", clean, "check")
	if code != 0 || !strings.Contains(out, "PASS") {
		t.Errorf("clean check: exit %d\n%s", code, out)
	}

	drifted := writeLedger(t, true)
	code, out, _ = run(t, "-ledger", drifted, "check")
	if code != 1 || !strings.Contains(out, "FAIL") {
		t.Errorf("drifted check: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "iq.dispatches") || !strings.Contains(out, "2601") {
		t.Errorf("drift detail missing:\n%s", out)
	}
}

func TestHTMLCommand(t *testing.T) {
	path := writeLedger(t, false)
	out := filepath.Join(t.TempDir(), "report.html")
	code, _, errb := run(t, "-ledger", path, "html", "-o", out,
		"-a", "reuse=false", "-b", "reuse=true")
	if code != 0 {
		t.Fatalf("html exit %d: %s", code, errb)
	}
	data, err := readFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!doctype html>", "PASS", "iq.dispatches"} {
		if !strings.Contains(data, want) {
			t.Errorf("html report missing %q", want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeLedger(t, false)
	for _, args := range [][]string{
		{"-ledger", path},
		{"-ledger", path, "frobnicate"},
		{"-ledger", path, "diff", "onlyone"},
		{"-ledger", path, "list", "bogus=1"},
		{"-ledger", path, "list", "ffwd=true"}, // filter key of the retired fast-forward engine
		{"-ledger", filepath.Join(t.TempDir(), "missing.jsonl"), "list"},
	} {
		if code, _, _ := run(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}
