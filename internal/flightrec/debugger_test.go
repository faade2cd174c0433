package flightrec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"reuseiq/internal/cell"
	"reuseiq/internal/telemetry"
)

// gateSource is a reuse-heavy loop; the chaos seed below makes it suffer
// mispredicts and revokes so the causal commands have incidents to explain.
const gateSource = `
	li   $r2, 0
	li   $r3, 30000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
`

// TestDebuggerSession drives the recorder → debugger pipeline end to end:
// record a chaos run's manifest to disk, load it cold, seek a spread of
// cycles against an uninterrupted run, run every scripted debugger
// command, and validate the exported Perfetto window.
func TestDebuggerSession(t *testing.T) {
	const chaosSeed = 42
	man := Manifest{Spec: cell.Spec{IQSize: 64, Reuse: true, NBLTSize: cell.DefaultNBLT, ChaosSeed: chaosSeed}, AsmSource: gateSource}
	cfg, p := man.Config(), programOf(t, man)
	dir := t.TempDir()
	end, _ := recordIn(t, dir, man)

	// Load from disk and seek-verify against an uninterrupted run.
	a, err := Load(dir)
	if err != nil {
		t.Fatalf("load recording: %v", err)
	}
	if a.End != end {
		t.Fatalf("loaded recording ends at cycle %d, live run ended at %d", a.End, end)
	}
	var out strings.Builder
	d, err := NewDebugger(NewSession(a), &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	from, to := d.S.Bounds()
	targets := []uint64{from, from + 1, (from + to) / 2, to - 4097, to}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	want := reference(t, cfg, p, targets)
	for _, n := range targets {
		if err := d.S.Seek(n); err != nil {
			t.Fatalf("seek %d: %v", n, err)
		}
		if !bytes.Equal(image(t, d.S.Machine()), want[n].image) {
			t.Fatalf("seek %d: snapshot image differs from the uninterrupted run", n)
		}
	}

	// Drive the scripted commands; each must succeed and say something.
	trace := filepath.Join(dir, "window.json")
	mid := (from + to) / 2
	script := []struct {
		cmd  string
		want string // substring the output must contain
	}{
		{"info", "seekable"},
		{fmt.Sprintf("seek %d", mid), fmt.Sprintf("at cycle %d", mid)},
		{"dump riq", "[riq]"},
		{"dump all", "[counters]"},
		{fmt.Sprintf("diff %d %d", from, mid), "[counters]"},
		{"watch riq", "RIQ"},
		{"watch commits >= 1000", "commits"},
		{fmt.Sprintf("why %d", mid), "RIQ in"},
		{fmt.Sprintf("events %d %d", mid, mid+2000), "events in"},
		{fmt.Sprintf("export %s %d %d", trace, from, mid), "wrote"},
	}
	for _, s := range script {
		out.Reset()
		if err := d.Exec(s.cmd); err != nil {
			t.Fatalf("%s: %v", s.cmd, err)
		}
		if !strings.Contains(out.String(), s.want) {
			t.Fatalf("%s: output lacks %q:\n%s", s.cmd, s.want, out.String())
		}
	}

	// The exported window must pass the trace validator and pin its bounds
	// for Perfetto-timestamp round trips.
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(bytes.NewReader(data)); err != nil {
		t.Fatalf("exported window: %v", err)
	}
	if err := telemetry.ValidateTraceWindow(bytes.NewReader(data)); err != nil {
		t.Fatalf("exported window: %v", err)
	}
}
