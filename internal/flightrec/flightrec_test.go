package flightrec

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/cell"
	"reuseiq/internal/chaos"
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

// record runs p to completion under cfg with a recorder attached and
// returns the archive.
func record(t *testing.T, cfg pipeline.Config, p *prog.Program, rc Config) *Archive {
	t.Helper()
	m := pipeline.New(cfg, p)
	rec, err := Attach(m, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return rec.Archive()
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
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(42)
	a := record(t, cfg, p, Config{})

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
			sp := cell.Spec{Kernel: k.Name, IQSize: 32, Reuse: true, NBLTSize: cell.DefaultNBLT}
			cfg := sp.Config()
			p, _, err := sp.Program()
			if err != nil {
				t.Fatal(err)
			}
			a := record(t, cfg, p, Config{})

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

// TestDiskRoundtrip: persist a recording, load it cold (config and program
// rebuilt from the manifest alone), and prove the loaded archive carries the
// same events and seeks to the same bytes as the live one.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(7)

	live := record(t, cfg, p, Config{
		Dir:      dir,
		Manifest: loopManifest(7),
	})
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("persisted %d event segments, want 1 for a run under %d events", len(segs), DefaultEvents)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.End != live.End || loaded.Halted != live.Halted {
		t.Fatalf("loaded end=%d halted=%v, live end=%d halted=%v", loaded.End, loaded.Halted, live.End, live.Halted)
	}
	if !reflect.DeepEqual(loaded.Events, live.Events) {
		t.Fatalf("loaded %d events, live kept %d, or they differ", len(loaded.Events), len(live.Events))
	}

	ls, vs := NewSession(loaded), NewSession(live)
	defer ls.Close()
	defer vs.Close()
	for _, n := range []uint64{loaded.End / 2, 1234, loaded.End} {
		if err := ls.Seek(n); err != nil {
			t.Fatalf("loaded seek %d: %v", n, err)
		}
		if err := vs.Seek(n); err != nil {
			t.Fatalf("live seek %d: %v", n, err)
		}
		if !bytes.Equal(image(t, ls.Machine()), image(t, vs.Machine())) {
			t.Fatalf("cycle %d: loaded archive and live archive disagree", n)
		}
	}
}

// TestSegmentRotation: segments rotate every DefaultEvents lines and only
// the newest two stay, which still hold every event the in-memory ring
// retains.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	m := pipeline.New(pipeline.DefaultConfig(), loopProgram(t))
	defer m.Release()
	rec, err := Attach(m, Config{Dir: dir, Manifest: loopManifest(0)})
	if err != nil {
		t.Fatal(err)
	}
	sink := m.Tel.Sink
	const total = 2*DefaultEvents + 100
	for i := range total {
		sink(telemetry.Event{Cycle: uint64(i), Kind: telemetry.EvBuffer, PC: 0x40})
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if len(segs) != 2 {
		t.Fatalf("%d event segments on disk, want the newest 2", len(segs))
	}
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != DefaultEvents+100 {
		t.Fatalf("loaded %d events, want %d", len(a.Events), DefaultEvents+100)
	}
	if !reflect.DeepEqual(a.Events[100:], rec.Events()) {
		t.Fatal("the newest segments do not hold the in-memory ring's events")
	}
}

// TestCrashArtifact: a recording directory abandoned without Finish (the
// crash case) must still load — torn event tail tolerated, end derived from
// the newest event — and seek to its end. A directory holding only the
// manifest and a torn segment is the degenerate case.
func TestCrashArtifact(t *testing.T) {
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(11)
	man := loopManifest(11)
	const stopAt = 20_000

	tearLastSegment := func(dir string) {
		t.Helper()
		segs, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
		if len(segs) == 0 {
			t.Fatal("no event segments on disk")
		}
		sort.Strings(segs)
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"cycle":99999,"kind":"comm`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	t.Run("events", func(t *testing.T) {
		dir := t.TempDir()
		m := pipeline.New(cfg, p)
		defer m.Release()
		if _, err := Attach(m, Config{Dir: dir, Manifest: man}); err != nil {
			t.Fatal(err)
		}
		if err := m.RunBreakable(64, func() bool { return m.Cycle() >= stopAt }); err != pipeline.ErrStopped {
			t.Fatalf("run: %v", err)
		}
		// No Finish: the segment holds what its buffer flushed, usually
		// ending mid-line, plus an explicitly torn line.
		tearLastSegment(dir)

		a, err := Load(dir)
		if err != nil {
			t.Fatalf("loading a crash artifact: %v", err)
		}
		if len(a.Events) == 0 {
			t.Fatal("crash artifact loaded no events; the run should have flushed some")
		}
		if a.End != a.Events[len(a.Events)-1].Cycle || a.End > stopAt {
			t.Fatalf("end %d: want the newest event's cycle %d, at most %d", a.End, a.Events[len(a.Events)-1].Cycle, stopAt)
		}
		want := reference(t, cfg, p, []uint64{a.End})
		s := NewSession(a)
		defer s.Close()
		if err := s.Seek(a.End); err != nil {
			t.Fatalf("seek the end of a crash artifact: %v", err)
		}
		if !bytes.Equal(image(t, s.Machine()), want[a.End].image) {
			t.Fatal("crash artifact's end differs from an uninterrupted run")
		}
	})

	t.Run("manifest only", func(t *testing.T) {
		dir := t.TempDir()
		m := pipeline.New(cfg, p)
		defer m.Release()
		if _, err := Attach(m, Config{Dir: dir, Manifest: man}); err != nil {
			t.Fatal(err)
		}
		tearLastSegment(dir)
		a, err := Load(dir)
		if err != nil {
			t.Fatalf("loading a crash artifact: %v", err)
		}
		if a.End != 0 || len(a.Events) != 0 {
			t.Fatalf("end %d with %d events, want 0 and none", a.End, len(a.Events))
		}
		s := NewSession(a)
		defer s.Close()
		if err := s.Seek(a.End); err != nil {
			t.Fatalf("seek the end of a crash artifact: %v", err)
		}
	})
}

// TestOldFormatArtifact: a recording written when seeks restored checkpoint
// images — a manifest with "interval" and "depth", plus ckpt-*.img files —
// still loads, ignoring the images, and seeks by replay.
func TestOldFormatArtifact(t *testing.T) {
	dir := t.TempDir()
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	live := record(t, cfg, p, Config{Dir: dir, Manifest: loopManifest(0)})

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
	for _, name := range []string{"ckpt-00000000000000000000.img", "ckpt-00000000000000065536.img"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("REUSEIQS stale image"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	a, err := Load(dir)
	if err != nil {
		t.Fatalf("loading an old-format recording: %v", err)
	}
	if a.End != live.End || len(a.Events) != len(live.Events) {
		t.Fatalf("loaded end=%d with %d events, live end=%d with %d", a.End, len(a.Events), live.End, len(live.Events))
	}
	want := reference(t, cfg, p, []uint64{a.End / 2})
	s := NewSession(a)
	defer s.Close()
	if err := s.Seek(a.End / 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(t, s.Machine()), want[a.End/2].image) {
		t.Fatal("old-format recording seeks to a state that differs from an uninterrupted run")
	}
}

// TestStepAndRStep: forward stepping replays in place (only the stepped
// cycles); reverse stepping replays from cycle 0 and lands on the identical
// image the forward pass saw.
func TestStepAndRStep(t *testing.T) {
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	a := record(t, cfg, p, Config{})

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
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(3)
	a := record(t, cfg, p, Config{})
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
