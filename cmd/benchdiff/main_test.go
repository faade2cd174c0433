package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reuseiq/internal/runstore"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = mainImpl(args, &out, &errb)
	return out.String(), errb.String(), code
}

const oldBench = `goos: linux
BenchmarkSimulatorSpeed-8   100   1000000 ns/op   500 B/op   10 allocs/op
BenchmarkOldOnly-8          100    200000 ns/op
PASS
`

const newBench = `goos: linux
BenchmarkSimulatorSpeed-8   100   1050000 ns/op   500 B/op   10 allocs/op
BenchmarkNewOnly-8          100    300000 ns/op
PASS
`

func TestReportsBenchmarksInOnlyOneInput(t *testing.T) {
	oldPath := writeBench(t, "old.txt", oldBench)
	newPath := writeBench(t, "new.txt", newBench)
	out, _, code := runDiff(t, oldPath, newPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (5%% < default threshold)", code)
	}
	if !strings.Contains(out, "BenchmarkOldOnly") || !strings.Contains(out, "only in "+oldPath) {
		t.Errorf("old-only benchmark not reported:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkNewOnly") || !strings.Contains(out, "only in "+newPath) {
		t.Errorf("new-only benchmark not reported:\n%s", out)
	}
}

func TestWatchedBenchmarkMissingFails(t *testing.T) {
	oldPath := writeBench(t, "old.txt", oldBench)
	newPath := writeBench(t, "new.txt", `BenchmarkSomethingElse-8 100 5 ns/op
BenchmarkOldOnly-8 100 200000 ns/op
`)
	_, stderr, code := runDiff(t, "-watch", "BenchmarkOldOnly,BenchmarkSimulatorSpeed", oldPath, newPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1 when a watched benchmark vanished", code)
	}
	if !strings.Contains(stderr, "BenchmarkSimulatorSpeed missing") {
		t.Errorf("stderr does not name the vanished watched benchmark: %s", stderr)
	}
}

func TestRegressionFails(t *testing.T) {
	oldPath := writeBench(t, "old.txt", "BenchmarkSimulatorSpeed-8 100 1000000 ns/op\n")
	newPath := writeBench(t, "new.txt", "BenchmarkSimulatorSpeed-8 100 1500000 ns/op\n")
	out, _, code := runDiff(t, oldPath, newPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a 50%% regression", code)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("report missing REGRESSION mark:\n%s", out)
	}
}

func TestMalformedValueExitsNonzero(t *testing.T) {
	oldPath := writeBench(t, "old.txt", oldBench)
	bad := writeBench(t, "bad.txt", "BenchmarkSimulatorSpeed-8 100 garbage ns/op\n")
	_, stderr, code := runDiff(t, oldPath, bad)
	if code != 2 {
		t.Fatalf("exit %d, want 2 for a malformed value", code)
	}
	if !strings.Contains(stderr, "bad value") {
		t.Errorf("stderr: %s", stderr)
	}
}

func TestMalformedIterationCountExitsNonzero(t *testing.T) {
	oldPath := writeBench(t, "old.txt", oldBench)
	bad := writeBench(t, "bad.txt", "BenchmarkSimulatorSpeed-8 nan 5 ns/op\n")
	if _, stderr, code := runDiff(t, oldPath, bad); code != 2 {
		t.Fatalf("exit %d, want 2 for a bad iteration count", code)
	} else if !strings.Contains(stderr, "bad iteration count") {
		t.Errorf("stderr: %s", stderr)
	}
}

func TestTruncatedLineExitsNonzero(t *testing.T) {
	oldPath := writeBench(t, "old.txt", oldBench)
	bad := writeBench(t, "bad.txt", "BenchmarkSimulatorSpeed-8 100\n")
	if _, _, code := runDiff(t, oldPath, bad); code != 2 {
		t.Fatalf("exit %d, want 2 for a truncated benchmark line", code)
	}
}

func TestEmptyInputExitsNonzero(t *testing.T) {
	oldPath := writeBench(t, "old.txt", oldBench)
	empty := writeBench(t, "empty.txt", "goos: linux\nPASS\n")
	if _, _, code := runDiff(t, oldPath, empty); code != 2 {
		t.Fatal("file without benchmark lines accepted")
	}
	if _, _, code := runDiff(t, oldPath); code != 2 {
		t.Fatal("missing argument accepted")
	}
	if _, _, code := runDiff(t, oldPath, filepath.Join(t.TempDir(), "nope.txt")); code != 2 {
		t.Fatal("nonexistent file accepted")
	}
}

func TestMinOfRepeatedRuns(t *testing.T) {
	oldPath := writeBench(t, "old.txt", `BenchmarkSimulatorSpeed-8 100 1000000 ns/op
BenchmarkSimulatorSpeed-8 100 900000 ns/op
BenchmarkSimulatorSpeed-8 100 1100000 ns/op
`)
	newPath := writeBench(t, "new.txt", "BenchmarkSimulatorSpeed-8 100 950000 ns/op\n")
	out, _, code := runDiff(t, oldPath, newPath)
	if code != 0 {
		t.Fatalf("exit %d (950k vs min 900k is +5.6%%, under threshold)", code)
	}
	if !strings.Contains(out, "900000.0") {
		t.Errorf("old column should show the minimum across runs:\n%s", out)
	}
}

// simcoreJSON renders a minimal valid simcore BenchRecord.
func simcoreJSON(nsPerCycle, allocs float64) string {
	return fmt.Sprintf(`{
  "v": 1, "kind": "simcore",
  "throughput": {"simulated_cycles": 1000, "wall_ns": 2000, "wall": "2µs",
    "cycles_per_sec": 5e8, "ns_per_cycle": %g, "allocs_per_cycle": %g},
  "sections": [{"name": "figure5", "wall": "1µs", "wall_ns": 1000}]
}`, nsPerCycle, allocs)
}

func TestJSONModeOKAndRegression(t *testing.T) {
	oldPath := writeBench(t, "old.json", simcoreJSON(2.0, 0.03))
	samePath := writeBench(t, "same.json", simcoreJSON(2.1, 0.03))
	out, _, code := runDiff(t, "-json", oldPath, samePath)
	if code != 0 {
		t.Fatalf("5%% growth under a 10%% threshold: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "ns_per_cycle") || !strings.Contains(out, "ok:") {
		t.Errorf("json diff output:\n%s", out)
	}

	slowPath := writeBench(t, "slow.json", simcoreJSON(3.0, 0.03))
	out, errb, code := runDiff(t, "-json", oldPath, slowPath)
	if code != 1 {
		t.Fatalf("50%% ns_per_cycle growth: exit %d\n%s%s", code, out, errb)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("regression not marked:\n%s", out)
	}
}

// TestJSONModeMalformedExits2 pins the validation gate: a syntactically
// broken file, a future schema version, a missing payload and an unknown
// kind all exit 2 — never a silent mis-diff.
func TestJSONModeMalformedExits2(t *testing.T) {
	good := writeBench(t, "good.json", simcoreJSON(2.0, 0.03))
	cases := map[string]string{
		"truncated":  `{"v": 1, "kind": "simcore", "throughput": {`,
		"future":     `{"v": 99, "kind": "simcore", "throughput": {"wall_ns": 1}}`,
		"no_payload": `{"v": 1, "kind": "simcore"}`,
		"bad_kind":   `{"v": 1, "kind": "mystery"}`,
	}
	for name, content := range cases {
		bad := writeBench(t, name+".json", content)
		if _, errb, code := runDiff(t, "-json", good, bad); code != 2 {
			t.Errorf("%s: exit %d, want 2 (%s)", name, code, errb)
		}
	}
}

// TestCheckedInBenchFilesValidate keeps the repo's own baseline file inside
// the schema the validator enforces.
func TestCheckedInBenchFilesValidate(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_simcore.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("%s not present", path)
	}
	if _, err := runstore.ReadBenchRecord(path); err != nil {
		t.Errorf("%s does not validate: %v", path, err)
	}
}
