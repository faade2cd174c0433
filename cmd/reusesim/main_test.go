package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reuseiq/internal/telemetry"
)

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = mainImpl(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestEventsFlagStreamsJSONL(t *testing.T) {
	out, _, code := runMain(t, "-kernel", "aps", "-events", "-")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, kinds := 0, map[string]int{}
	for sc.Scan() {
		var e struct {
			Cycle uint64 `json:"cycle"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines+1, err, sc.Text())
		}
		if e.Kind == "" {
			t.Fatalf("line %d has no kind: %s", lines+1, sc.Text())
		}
		kinds[e.Kind]++
		lines++
	}
	if lines == 0 {
		t.Fatal("-events - produced no output")
	}
	for _, want := range []string{"buffer", "promote", "reuse-exit"} {
		if kinds[want] == 0 {
			t.Errorf("event stream has no %q events (kinds seen: %v)", want, kinds)
		}
	}
}

func TestEventsFlagToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	stdout, _, code := runMain(t, "-kernel", "aps", "-events", path)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if strings.Contains(stdout, `"kind"`) {
		t.Error("events leaked to stdout when a file was given")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"promote"`) {
		t.Error("events file missing promote events")
	}
}

func TestTraceFlagWritesValidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	_, stderr, code := runMain(t, "-kernel", "aps", "-trace", path)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "ui.perfetto.dev") {
		t.Errorf("stderr missing perfetto pointer: %s", stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.ValidateTrace(f); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}
}

func TestSessionsFlagPrintsAuditTable(t *testing.T) {
	out, _, code := runMain(t, "-kernel", "aps", "-sessions")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "end-reason") || !strings.Contains(out, "reuse-exit") {
		t.Errorf("audit table missing expected columns:\n%s", out)
	}
}

func TestHelpMentionsTelemetryFlags(t *testing.T) {
	_, stderr, code := runMain(t, "-h")
	if code != 2 {
		t.Fatalf("-h exit code %d, want 2", code)
	}
	for _, flagName := range []string{"-events", "-trace", "-sessions", "-attrib"} {
		if !strings.Contains(stderr, flagName) {
			t.Errorf("-help output missing %s", flagName)
		}
	}
}

// Flags that name no buildable cell exit 2 with a one-line error before
// anything is simulated or written.
func TestBadFlagsExitNonzero(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "loop.s")
	if err := os.WriteFile(src, []byte("\thalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, "rec")
	led := filepath.Join(dir, "runs.jsonl")
	for _, args := range [][]string{
		{"-kernel", "nosuch"},
		{},
		{"-kernel", "aps", "-asm", src},
		{"-kernel", "tsf", "-iq", "0"},
		{"-kernel", "tsf", "-iq", "-4"},
		{"-kernel", "tsf", "-iq", "1"},
		{"-asm", src, "-distribute"},
		{"-asm", src, "-distribute", "-flightrec", rec},
		{"-asm", src, "-ledger", led},
	} {
		stdout, stderr, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "reusesim: ") {
			t.Errorf("%v: want one error line on stderr, got stdout %q stderr %q", args, stdout, stderr)
		}
	}
	for _, path := range []string{rec, led} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("a rejected run left %s behind (%v)", path, err)
		}
	}
}

// Telemetry must not change simulation results: the default summary is
// byte-identical with and without a trace being recorded.
func TestTelemetryOutputInvariant(t *testing.T) {
	plain, _, code := runMain(t, "-kernel", "aps")
	if code != 0 {
		t.Fatal("plain run failed")
	}
	traced, _, code := runMain(t, "-kernel", "aps", "-trace", filepath.Join(t.TempDir(), "t.json"))
	if code != 0 {
		t.Fatal("traced run failed")
	}
	if plain != traced {
		t.Error("summary output differs between plain and traced runs")
	}
}

// The -pipetrace diagram of a reuse-heavy kernel is pinned byte for byte:
// reused rows ('R'), squashed rows ('x') and the summary line.
func TestPipetraceGolden(t *testing.T) {
	stdout, stderr, code := runMain(t, "-kernel", "tsf", "-iq", "32", "-pipetrace", "400")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	path := filepath.Join("testdata", "pipetrace-tsf-iq32-400.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("-pipetrace output drifted from %s\ngot:\n%s", path, stdout)
	}
}

// -pipetrace prints only the diagram, so every flag whose output it would
// drop is rejected rather than silently ignored.
func TestPipetraceRejectsIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-compare", []string{"-compare"}},
		{"-trace", []string{"-trace", filepath.Join(dir, "t.json")}},
		{"-events", []string{"-events", "-"}},
		{"-sessions", []string{"-sessions"}},
		{"-attrib", []string{"-attrib"}},
		{"-stats", []string{"-stats"}},
		{"-ledger", []string{"-ledger", filepath.Join(dir, "runs.jsonl")}},
		{"-listen", []string{"-listen", "127.0.0.1:0"}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			args := append([]string{"-kernel", "aps", "-pipetrace", "16"}, tc.args...)
			stdout, stderr, code := runMain(t, args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2", code)
			}
			if !strings.Contains(stderr, "-pipetrace") || !strings.Contains(stderr, tc.flag) {
				t.Errorf("stderr does not name the conflict: %s", stderr)
			}
			if stdout != "" {
				t.Errorf("rejected run wrote to stdout: %s", stdout)
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "runs.jsonl")); !os.IsNotExist(err) {
		t.Errorf("rejected -ledger run created the ledger file: %v", err)
	}
}
