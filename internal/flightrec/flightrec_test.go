package flightrec

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/cell"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/workloads"
)

// loopSource is a small reuse-heavy loop: long enough for seeks to cross
// many reuse sessions, busy enough that most cycles sit inside one.
const loopSource = `
	li   $r2, 0
	li   $r3, 20000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
`

// loopManifest names loopSource on the default machine (IQ 64, reuse on)
// with the given chaos seed.
func loopManifest(chaosSeed int64) Manifest {
	return Manifest{Spec: cell.Spec{IQSize: 64, Reuse: true, NBLTSize: cell.DefaultNBLT, ChaosSeed: chaosSeed}, AsmSource: loopSource}
}

func loopProgram(t *testing.T) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(loopSource)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// programOf builds the program man names.
func programOf(t *testing.T, man Manifest) *prog.Program {
	t.Helper()
	if man.AsmSource != "" {
		p, err := asm.Assemble(man.AsmSource)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, _, err := man.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recordIn runs man's cell to completion the way reusesim -flightrec does:
// the manifest is written into dir before the run and stamped after it,
// and nothing is attached to the machine. It returns where the run stopped.
func recordIn(t *testing.T, dir string, man Manifest) (end uint64, halted bool) {
	t.Helper()
	m := pipeline.New(man.Config(), programOf(t, man))
	defer m.Release()
	if err := Start(dir, man, m); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := Stamp(dir, man, m); err != nil {
		t.Fatal(err)
	}
	return m.Cycle(), m.Halted()
}

// record records man's cell into a fresh directory and loads it back.
func record(t *testing.T, man Manifest) *Archive {
	t.Helper()
	dir := t.TempDir()
	recordIn(t, dir, man)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// traced runs man's cell uninterrupted with a default tracer attached and
// returns its sink stream and where it stopped.
func traced(t *testing.T, man Manifest) (events []telemetry.Event, end uint64, halted bool) {
	t.Helper()
	m := pipeline.New(man.Config(), programOf(t, man))
	defer m.Release()
	tel := telemetry.New(telemetry.Config{})
	tel.Sink = func(e telemetry.Event) { events = append(events, e) }
	m.AttachTelemetry(tel)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return events, m.Cycle(), m.Halted()
}

// rewriteManifest replaces dir's manifest with man, as written by hand.
func rewriteManifest(t *testing.T, dir string, man Manifest) {
	t.Helper()
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// image encodes m's state as a snapshot image: the byte-exact currency the
// seek-determinism property is stated in.
func image(t *testing.T, m *pipeline.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// metrics renders every value m.RegisterMetrics publishes.
func metrics(m *pipeline.Machine) string {
	r := &telemetry.Registry{}
	m.RegisterMetrics(r)
	return r.Snapshot().String()
}

// refState is an uninterrupted run's state at one cycle.
type refState struct {
	image   []byte
	metrics string
}

// reference runs a fresh machine cycle-accurately (no recorder) and
// captures its state at each target cycle. This is the uninterrupted-run
// oracle every seek must match.
func reference(t *testing.T, cfg pipeline.Config, p *prog.Program, targets []uint64) map[uint64]refState {
	t.Helper()
	sorted := append([]uint64(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make(map[uint64]refState, len(sorted))
	m := pipeline.New(cfg, p)
	defer m.Release()
	for _, n := range sorted {
		if _, ok := out[n]; ok {
			continue
		}
		if m.Cycle() < n {
			err := m.RunBreakable(1, func() bool { return m.Cycle() >= n })
			if err != nil && err != pipeline.ErrStopped {
				t.Fatalf("reference run to cycle %d: %v", n, err)
			}
		}
		if m.Cycle() != n {
			t.Fatalf("reference run stopped at cycle %d, want %d", m.Cycle(), n)
		}
		out[n] = refState{image: image(t, m), metrics: metrics(m)}
	}
	return out
}

// TestSeekDeterminism is the recorder's headline property: seeking to ANY
// covered cycle — forward from the cursor, backward by replay from cycle 0,
// or twice in a row — lands on a machine whose snapshot image is
// byte-identical to an uninterrupted cycle-accurate run stopped at that
// cycle. Exercised under fault injection (chaos), so the replays also prove
// the injector's PRNG stream replays exactly.
func TestSeekDeterminism(t *testing.T) {
	man := loopManifest(42)
	cfg, p := man.Config(), loopProgram(t)
	a := record(t, man)

	rng := rand.New(rand.NewSource(1))
	targets := []uint64{0, 1, a.End - 1, a.End}
	for len(targets) < 25 {
		targets = append(targets, uint64(rng.Int63n(int64(a.End+1))))
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	want := reference(t, cfg, p, targets)

	s := NewSession(a)
	defer s.Close()
	for _, n := range targets {
		if err := s.Seek(n); err != nil {
			t.Fatalf("seek %d: %v", n, err)
		}
		img := image(t, s.Machine())
		if !bytes.Equal(img, want[n].image) {
			t.Fatalf("seek %d: image differs from uninterrupted run (len %d vs %d)", n, len(img), len(want[n].image))
		}
		// Same seek again must be idempotent at the byte level.
		if err := s.Seek(n); err != nil {
			t.Fatalf("re-seek %d: %v", n, err)
		}
		if !bytes.Equal(img, image(t, s.Machine())) {
			t.Fatalf("seek %d twice produced different images", n)
		}
	}
	if err := s.Seek(a.End + 1); err == nil {
		t.Fatal("seek past the recording end succeeded")
	}
}

// TestSeekEveryKernel: for every paper kernel at IQ 32 with reuse on, seeks
// forward, back, forward, back to seeded random cycles land on the registry
// values and snapshot image of an uninterrupted run stopped at the same
// cycle. The backward seeks are what prove replay from cycle 0: a cursor
// that stayed put would sit past its target. Skipped under -race: its
// ~70 CPU-seconds there would add to the slowest race package's run, and
// TestSeekDeterminism and TestDebuggerSession drive the same seek paths.
func TestSeekEveryKernel(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("replays every kernel several times")
	}
	for i, k := range workloads.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			man := Manifest{Spec: cell.Spec{Kernel: k.Name, IQSize: 32, Reuse: true, NBLTSize: cell.DefaultNBLT}}
			cfg, p := man.Config(), programOf(t, man)
			a := record(t, man)

			rng := rand.New(rand.NewSource(int64(i + 1)))
			pick := func(lo, hi uint64) uint64 { return lo + uint64(rng.Int63n(int64(hi-lo+1))) }
			t1 := pick(1, a.End)
			t2 := pick(0, t1-1)
			t3 := pick(t2+1, a.End)
			t4 := pick(0, t3-1)
			targets := []uint64{t1, t2, t3, t4}
			want := reference(t, cfg, p, targets)

			s := NewSession(a)
			defer s.Close()
			for _, n := range targets {
				if err := s.Seek(n); err != nil {
					t.Fatalf("seek %d: %v", n, err)
				}
				if got := s.Cycle(); got != n {
					t.Fatalf("seek %d landed at cycle %d", n, got)
				}
				if got := metrics(s.Machine()); got != want[n].metrics {
					t.Fatalf("seek %d: registry differs from uninterrupted run\ngot:\n%s\nwant:\n%s", n, got, want[n].metrics)
				}
				if !bytes.Equal(image(t, s.Machine()), want[n].image) {
					t.Fatalf("seek %d: snapshot image differs from uninterrupted run", n)
				}
			}
		})
	}
}

// TestDiskRoundtrip: a recording directory holds only its manifest; it
// loads cold (config and program rebuilt from the manifest alone), ends
// where the recorded run stopped, and seeks to the bytes of an
// uninterrupted run.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	man := loopManifest(7)
	cfg, p := man.Config(), loopProgram(t)
	end, halted := recordIn(t, dir, man)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != ManifestName {
		t.Fatalf("recording directory holds %v, want only %s", ents, ManifestName)
	}

	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.End != end || a.Halted != halted {
		t.Fatalf("loaded end=%d halted=%v, the run stopped at %d halted=%v", a.End, a.Halted, end, halted)
	}
	targets := []uint64{a.End / 2, 1234, a.End}
	want := reference(t, cfg, p, targets)
	s := NewSession(a)
	defer s.Close()
	for _, n := range targets {
		if err := s.Seek(n); err != nil {
			t.Fatalf("seek %d: %v", n, err)
		}
		if !bytes.Equal(image(t, s.Machine()), want[n].image) {
			t.Fatalf("cycle %d: loaded recording differs from an uninterrupted run", n)
		}
	}
}

// TestReplayEvents: a loaded recording's events are, in order, exactly the
// sink stream of an uninterrupted traced run of the same cell, though
// nothing was attached while the recorded run ran. Outside -race the cell
// is btrix at IQ 256 under chaos seed 7, whose event history is longer
// than a 64 Ki-event ring holds; under -race it is the loop program.
func TestReplayEvents(t *testing.T) {
	man := loopManifest(7)
	if !raceEnabled {
		man = Manifest{Spec: cell.Spec{Kernel: "btrix", IQSize: 256, Reuse: true, NBLTSize: cell.DefaultNBLT, ChaosSeed: 7}}
	}
	a := record(t, man)
	want, end, halted := traced(t, man)
	if a.End != end || a.Halted != halted {
		t.Fatalf("loaded end=%d halted=%v, the traced run stopped at %d halted=%v", a.End, a.Halted, end, halted)
	}
	if !slices.Equal(a.Events, want) {
		t.Fatalf("loaded %d events, the traced run emitted %d, or they differ", len(a.Events), len(want))
	}
	if !raceEnabled && len(want) <= 1<<16 {
		t.Fatalf("btrix IQ 256 chaos 7 emitted %d events; the test wants a history longer than 64 Ki", len(want))
	}
}

// TestCrashArtifact: a manifest never stamped (the process died mid-run,
// or before its first cycle) still loads. Its end is where the cell's
// re-run stops, its events are the whole run's, and it seeks to that end.
func TestCrashArtifact(t *testing.T) {
	man := loopManifest(11)
	cfg, p := man.Config(), loopProgram(t)
	want, end, halted := traced(t, man)
	const stopAt = 20_000

	load := func(t *testing.T, dir string) {
		t.Helper()
		a, err := Load(dir)
		if err != nil {
			t.Fatalf("loading a crash artifact: %v", err)
		}
		if a.End != end || a.Halted != halted {
			t.Fatalf("end %d halted %v, want the re-run's %d halted %v", a.End, a.Halted, end, halted)
		}
		if !slices.Equal(a.Events, want) {
			t.Fatalf("crash artifact loaded %d events, the whole run emits %d", len(a.Events), len(want))
		}
		ref := reference(t, cfg, p, []uint64{a.End})
		s := NewSession(a)
		defer s.Close()
		if err := s.Seek(a.End); err != nil {
			t.Fatalf("seek the end of a crash artifact: %v", err)
		}
		if !bytes.Equal(image(t, s.Machine()), ref[a.End].image) {
			t.Fatal("crash artifact's end differs from an uninterrupted run")
		}
	}

	t.Run("events", func(t *testing.T) {
		dir := t.TempDir()
		m := pipeline.New(cfg, p)
		defer m.Release()
		if err := Start(dir, man, m); err != nil {
			t.Fatal(err)
		}
		if err := m.RunBreakable(64, func() bool { return m.Cycle() >= stopAt }); err != pipeline.ErrStopped {
			t.Fatalf("run: %v", err)
		}
		if stopAt >= end {
			t.Fatalf("the run ends at cycle %d, before the crash at %d", end, stopAt)
		}
		load(t, dir) // no Stamp: the run died at stopAt
	})

	t.Run("manifest only", func(t *testing.T) {
		dir := t.TempDir()
		m := pipeline.New(cfg, p)
		defer m.Release()
		if err := Start(dir, man, m); err != nil {
			t.Fatal(err)
		}
		load(t, dir) // died before its first cycle
	})
}

// TestStampedEnd: a stamped manifest's final cycle and halt state must be
// where the re-run arrives. One the re-run cannot reach, or one claiming a
// halt the run never made, is refused as a divergence. One that stops
// early without a halt is a run stopped by a check outside its cell (the
// -verify oracle), and loads up to that cycle.
func TestStampedEnd(t *testing.T) {
	dir := t.TempDir()
	man := loopManifest(5)
	end, halted := recordIn(t, dir, man)
	if !halted {
		t.Fatal("the loop program did not halt")
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		final  uint64
		halted bool
	}{
		{"beyond the end", end + 1000, true},
		{"beyond the end, not halted", end + 1, false},
		{"early halt", end / 2, true},
		{"end without its halt", end, false},
	} {
		bad := stamped
		bad.FinalCycle, bad.Halted = tc.final, tc.halted
		rewriteManifest(t, dir, bad)
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Errorf("%s (cycle %d, halted %v): Load = %v, want a divergence", tc.name, tc.final, tc.halted, err)
		}
	}

	early := stamped
	early.FinalCycle, early.Halted = end/2, false
	rewriteManifest(t, dir, early)
	a, err := Load(dir)
	if err != nil {
		t.Fatalf("a run stopped early: %v", err)
	}
	if a.End != end/2 || a.Halted {
		t.Fatalf("a run stopped early loads with end %d halted %v, want %d and not halted", a.End, a.Halted, end/2)
	}
	if n := len(a.Events); n == 0 || a.Events[n-1].Cycle > a.End {
		t.Fatalf("a run stopped at cycle %d loads %d events, the last past its end", a.End, n)
	}
}

// TestOldFormatArtifact: a recording written by older builds — a manifest
// with "interval" and "depth", ckpt-*.img checkpoint images and
// events-*.jsonl event segments beside it — still loads, ignoring the
// images and the segments, and seeks by replay.
func TestOldFormatArtifact(t *testing.T) {
	dir := t.TempDir()
	man := loopManifest(0)
	cfg, p := man.Config(), loopProgram(t)
	end, _ := recordIn(t, dir, man)
	want, _, _ := traced(t, man)

	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	// The flat workload fields of that era: absent iq, reuse and nblt mean
	// the default machine.
	delete(fields, "iq")
	delete(fields, "reuse")
	delete(fields, "nblt")
	fields["interval"], fields["depth"] = 65536, 8
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"ckpt-00000000000000000000.img": "REUSEIQS stale image",
		"ckpt-00000000000000065536.img": "REUSEIQS stale image",
		// A stale segment whose events no run emitted, then a torn line.
		"events-00000000000000000000.jsonl": `{"cycle":3,"kind":"buffer","pc":"0x40"}` + "\n" + `{"cycle":99999,"kind":"comm`,
		"events-00000000000000065536.jsonl": "not json at all\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	a, err := Load(dir)
	if err != nil {
		t.Fatalf("loading an old-format recording: %v", err)
	}
	if a.End != end || !slices.Equal(a.Events, want) {
		t.Fatalf("loaded end=%d with %d events, the run ended at %d with %d", a.End, len(a.Events), end, len(want))
	}
	ref := reference(t, cfg, p, []uint64{a.End / 2})
	s := NewSession(a)
	defer s.Close()
	if err := s.Seek(a.End / 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(t, s.Machine()), ref[a.End/2].image) {
		t.Fatal("old-format recording seeks to a state that differs from an uninterrupted run")
	}
}

// TestStepAndRStep: forward stepping replays in place (only the stepped
// cycles); reverse stepping replays from cycle 0 and lands on the identical
// image the forward pass saw.
func TestStepAndRStep(t *testing.T) {
	a := record(t, loopManifest(0))

	s := NewSession(a)
	defer s.Close()
	start := a.End / 3
	if err := s.Seek(start); err != nil {
		t.Fatal(err)
	}
	replayed := s.Replayed
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != start+10 {
		t.Fatalf("step landed at %d, want %d", s.Cycle(), start+10)
	}
	if s.Replayed != replayed+10 {
		t.Fatalf("forward step replayed %d cycles, want 10", s.Replayed-replayed)
	}
	after := image(t, s.Machine())
	if err := s.RStep(10); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != start {
		t.Fatalf("rstep landed at %d, want %d", s.Cycle(), start)
	}
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, image(t, s.Machine())) {
		t.Fatal("step -> rstep -> step did not reproduce the same image")
	}
}

// TestEventsBetween: the event timeline is cycle-ordered and sliceable.
func TestEventsBetween(t *testing.T) {
	a := record(t, loopManifest(3))
	if len(a.Events) == 0 {
		t.Fatal("chaos run recorded no events")
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].Cycle < a.Events[i-1].Cycle {
			t.Fatalf("events out of order at %d: %d after %d", i, a.Events[i].Cycle, a.Events[i-1].Cycle)
		}
	}
	mid := a.End / 2
	for _, e := range a.EventsBetween(0, mid) {
		if e.Cycle > mid {
			t.Fatalf("EventsBetween(0,%d) leaked cycle %d", mid, e.Cycle)
		}
	}
	lo, hi := a.EventsBetween(0, mid), a.EventsBetween(mid+1, a.End)
	if len(lo)+len(hi) != len(a.Events) {
		t.Fatalf("window split %d+%d != %d", len(lo), len(hi), len(a.Events))
	}
}
