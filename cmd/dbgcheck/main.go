// Command dbgcheck is the tier-1 time-travel gate (make dbg-check). It
// proves the flight-recorder → debugger pipeline end to end, in process:
//
//  1. Record: a chaos-seeded reuse workload runs to completion with the
//     recorder attached, persisting checkpoints and event segments to a
//     scratch directory.
//  2. Seek: the recording is loaded back from disk and a spread of cycles
//     is seeked; every landed state must re-serialize byte-identical to a
//     fresh uninterrupted run of the same configuration (the recorder and
//     the debugger may not perturb the machine).
//  3. Drive: the scripted debugger commands (info, dump, diff, watch, why,
//     events, export) must all succeed and produce the landmarks a human
//     would rely on.
//  4. Export: the written Perfetto window must pass the telemetry trace
//     validator and carry a trace_window record whose bounds and zero
//     cycle offset make Perfetto timestamps seekable back into the
//     debugger.
//
// Usage:
//
//	dbgcheck
//
// Exit status 0 on success, 1 on any failure.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"reuseiq/internal/asm"
	"reuseiq/internal/chaos"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
)

// gateSource is a reuse-heavy loop long enough to cross many checkpoint
// intervals; the chaos seed below makes it suffer mispredicts and revokes so
// the causal commands have incidents to explain.
const gateSource = `
	li   $r2, 0
	li   $r3, 30000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
`

const chaosSeed = 42

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dbgcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	p, err := asm.Assemble(gateSource)
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Reuse.Enabled = true
	cfg.Chaos = chaos.DefaultConfig(chaosSeed)

	dir, err := os.MkdirTemp("", "dbgcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. Record.
	m := pipeline.New(cfg, p)
	rec, err := flightrec.Attach(m, flightrec.Config{
		Interval: 4096,
		Depth:    16,
		Dir:      dir,
		Manifest: flightrec.Manifest{AsmSource: gateSource, ChaosSeed: chaosSeed},
	})
	if err != nil {
		return err
	}
	if err := m.RunBreakable(64, rec.Break); err != nil {
		return fmt.Errorf("recorded run: %w", err)
	}
	if err := rec.Finish(); err != nil {
		return fmt.Errorf("finish recording: %w", err)
	}
	end := m.Cycle()
	m.Release()
	fmt.Printf("dbgcheck: recorded %d cycles to %d checkpoints + %d events\n",
		end, rec.Status().Checkpoints, rec.Status().EventsRetained)

	// 2. Load from disk and seek-verify against an uninterrupted run.
	a, err := flightrec.Load(dir)
	if err != nil {
		return fmt.Errorf("load recording: %w", err)
	}
	if a.End != end {
		return fmt.Errorf("loaded recording ends at cycle %d, live run ended at %d", a.End, end)
	}
	d, err := flightrec.NewDebugger(a, os.Stdout)
	if err != nil {
		return err
	}
	defer d.Close()

	from, to := d.S.Bounds()
	targets := []uint64{from, from + 1, (from + to) / 2, to - 4097, to}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	refs, err := referenceImages(cfg, p, targets)
	if err != nil {
		return err
	}
	for _, n := range targets {
		if err := d.S.Seek(n); err != nil {
			return fmt.Errorf("seek %d: %w", n, err)
		}
		img, err := d.S.Image()
		if err != nil {
			return err
		}
		if !bytes.Equal(img, refs[n]) {
			return fmt.Errorf("seek %d: snapshot image differs from the uninterrupted run", n)
		}
	}
	fmt.Printf("dbgcheck: %d seeks byte-identical to the uninterrupted run (%d restores, %d cycles replayed)\n",
		len(targets), d.S.Restores, d.S.Replayed)

	// 3. Drive the scripted commands; each must succeed and say something.
	trace := filepath.Join(dir, "window.json")
	mid := (from + to) / 2
	script := []struct {
		cmd  string
		want string // substring the output must contain ("" = any)
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
		var out strings.Builder
		d.Out = &out
		if err := d.Exec(s.cmd); err != nil {
			return fmt.Errorf("%s: %w", s.cmd, err)
		}
		if out.Len() == 0 {
			return fmt.Errorf("%s: no output", s.cmd)
		}
		if s.want != "" && !strings.Contains(out.String(), s.want) {
			return fmt.Errorf("%s: output lacks %q:\n%s", s.cmd, s.want, out.String())
		}
	}
	fmt.Printf("dbgcheck: %d scripted commands ok (seek/dump/diff/watch/why/events/export)\n", len(script))

	// 4. The exported window must pass the trace validator and pin its
	// bounds for Perfetto-timestamp round trips.
	data, err := os.ReadFile(trace)
	if err != nil {
		return err
	}
	if err := telemetry.ValidateTrace(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("exported window: %w", err)
	}
	if err := telemetry.ValidateTraceWindow(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("exported window: %w", err)
	}
	fmt.Println("dbgcheck: exported Perfetto window validates (monotone, balanced, seekable bounds)")
	return nil
}

// referenceImages captures snapshot images at each (ascending) target cycle
// from one fresh cycle-accurate run — the oracle the debugger's seeks must
// match byte for byte.
func referenceImages(cfg pipeline.Config, p *prog.Program, targets []uint64) (map[uint64][]byte, error) {
	out := make(map[uint64][]byte, len(targets))
	m := pipeline.New(cfg, p)
	defer m.Release()
	for _, n := range targets {
		if _, ok := out[n]; ok {
			continue
		}
		if m.Cycle() < n {
			err := m.RunBreakable(1, func() bool { return m.Cycle() >= n })
			if err != nil && err != pipeline.ErrStopped {
				return nil, fmt.Errorf("reference run to cycle %d: %w", n, err)
			}
		}
		if m.Cycle() != n {
			return nil, fmt.Errorf("reference run stopped at cycle %d, want %d", m.Cycle(), n)
		}
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, m); err != nil {
			return nil, err
		}
		out[n] = buf.Bytes()
	}
	return out, nil
}
