package flightrec

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/chaos"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
)

// loopSource is a small reuse-heavy loop: long enough to cross many
// checkpoint intervals at test-sized intervals, busy enough that most cycles
// sit inside a reuse session.
const loopSource = `
	li   $r2, 0
	li   $r3, 20000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
`

func loopProgram(t *testing.T) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(loopSource)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// record runs p to completion under cfg with a recorder attached (checkpoint
// cadence via RunBreakable) and returns the archive.
func record(t *testing.T, cfg pipeline.Config, p *prog.Program, rc Config) *Archive {
	t.Helper()
	m := pipeline.New(cfg, p)
	rec, err := Attach(m, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunBreakable(64, rec.Break); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return rec.Archive()
}

// referenceImages runs a fresh machine cycle-accurately (no recorder) and
// captures a snapshot image at each target cycle. This is the
// uninterrupted-run oracle every seek must match byte for byte.
func referenceImages(t *testing.T, cfg pipeline.Config, p *prog.Program, targets []uint64) map[uint64][]byte {
	t.Helper()
	sorted := append([]uint64(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make(map[uint64][]byte, len(sorted))
	m := pipeline.New(cfg, p)
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
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		out[n] = buf.Bytes()
	}
	return out
}

// seekTargets picks n cycles spread over the archive's seekable range, half
// uniform, half adversarial (checkpoint boundaries and their neighbors).
func seekTargets(a *Archive, n int, rng *rand.Rand) []uint64 {
	from, end := a.Ckpts[0].Cycle, a.End
	targets := make([]uint64, 0, n)
	for _, ck := range a.Ckpts {
		for _, d := range []uint64{0, 1} {
			if c := ck.Cycle + d; c <= end {
				targets = append(targets, c)
			}
		}
		if len(targets) >= n/2 {
			break
		}
	}
	for len(targets) < n {
		targets = append(targets, from+uint64(rng.Int63n(int64(end-from+1))))
	}
	return targets[:n]
}

// TestSeekDeterminism is the recorder's headline property: seeking to ANY
// covered cycle — from the nearest checkpoint, from any older checkpoint,
// or twice in a row — lands on a machine whose snapshot image is
// byte-identical to an uninterrupted cycle-accurate run stopped at that
// cycle. Exercised under fault injection (chaos), so the replays also prove
// the injector's PRNG stream survives restore.
func TestSeekDeterminism(t *testing.T) {
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(42)

	a := record(t, cfg, p, Config{Interval: 3000, Depth: 64})
	if len(a.Ckpts) < 5 {
		t.Fatalf("recording kept only %d checkpoints; want several for cross-checkpoint seeks", len(a.Ckpts))
	}

	rng := rand.New(rand.NewSource(1))
	targets := seekTargets(a, 25, rng)
	want := referenceImages(t, cfg, p, targets)

	s := NewSession(a)
	defer s.Close()
	for _, n := range targets {
		if err := s.Seek(n); err != nil {
			t.Fatalf("seek %d: %v", n, err)
		}
		img, err := s.Image()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want[n]) {
			t.Fatalf("seek %d: image differs from uninterrupted run (len %d vs %d)", n, len(img), len(want[n]))
		}
		// Same seek again must be idempotent at the byte level.
		if err := s.Seek(n); err != nil {
			t.Fatalf("re-seek %d: %v", n, err)
		}
		img2, err := s.Image()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatalf("seek %d twice produced different images", n)
		}
	}

	// Cross-checkpoint independence: replaying to one target from every
	// viable ring entry must converge on the same bytes.
	n := targets[len(targets)-1]
	for ci, ck := range a.Ckpts {
		if ck.Cycle > n {
			break
		}
		if err := s.SeekFrom(ci, n); err != nil {
			t.Fatalf("seek %d from checkpoint %d (cycle %d): %v", n, ci, ck.Cycle, err)
		}
		img, err := s.Image()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want[n]) {
			t.Fatalf("seek %d from checkpoint %d (cycle %d): image differs from uninterrupted run", n, ci, ck.Cycle)
		}
	}
}

// TestRingEviction: a bounded ring must evict oldest-first, refuse seeks
// before the retained range, and report honest occupancy.
func TestRingEviction(t *testing.T) {
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()

	m := pipeline.New(cfg, p)
	rec, err := Attach(m, Config{Interval: 2000, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunBreakable(64, rec.Break); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	st := rec.Status()
	if st.Checkpoints > 3 {
		t.Fatalf("ring holds %d checkpoints, depth is 3", st.Checkpoints)
	}
	if st.CheckpointsEvicted == 0 {
		t.Fatalf("expected evictions on a long run with depth 3: %+v", st)
	}
	if st.CheckpointsTaken != st.CheckpointsEvicted+uint64(st.Checkpoints) {
		t.Fatalf("taken (%d) != evicted (%d) + retained (%d)", st.CheckpointsTaken, st.CheckpointsEvicted, st.Checkpoints)
	}
	if st.SeekableFrom == 0 {
		t.Fatalf("oldest retained checkpoint should be post-eviction (cycle > 0): %+v", st)
	}

	a := rec.Archive()
	s := NewSession(a)
	defer s.Close()
	if err := s.Seek(0); err == nil {
		t.Fatal("seek before the retained ring succeeded; want an error naming the oldest checkpoint")
	}
	if err := s.Seek(a.End + 1); err == nil {
		t.Fatal("seek past the recording end succeeded")
	}
	if err := s.Seek(st.SeekableFrom); err != nil {
		t.Fatalf("seek to the oldest retained checkpoint: %v", err)
	}
}

// TestDiskRoundtrip: persist a recording, load it cold (config and program
// rebuilt from the manifest alone), and prove the loaded archive seeks to
// the same bytes as the live one. Also checks artifact hygiene: bounded
// file count and evicted images actually deleted.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(7)

	live := record(t, cfg, p, Config{
		Interval: 3000,
		Depth:    4,
		Dir:      dir,
		Manifest: Manifest{AsmSource: loopSource, ChaosSeed: 7},
	})

	imgs, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.img"))
	if len(imgs) == 0 || len(imgs) > 4 {
		t.Fatalf("persisted %d checkpoint images, want 1..4 (depth)", len(imgs))
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if len(segs) == 0 || len(segs) > 5 {
		t.Fatalf("persisted %d event segments, want 1..depth+1", len(segs))
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.End != live.End || loaded.Halted != live.Halted {
		t.Fatalf("loaded end=%d halted=%v, live end=%d halted=%v", loaded.End, loaded.Halted, live.End, live.Halted)
	}
	if len(loaded.Ckpts) != len(live.Ckpts) {
		t.Fatalf("loaded %d checkpoints, live kept %d", len(loaded.Ckpts), len(live.Ckpts))
	}

	ls, vs := NewSession(loaded), NewSession(live)
	defer ls.Close()
	defer vs.Close()
	for _, n := range []uint64{loaded.Ckpts[0].Cycle, loaded.Ckpts[0].Cycle + 1234, loaded.End} {
		if err := ls.Seek(n); err != nil {
			t.Fatalf("loaded seek %d: %v", n, err)
		}
		if err := vs.Seek(n); err != nil {
			t.Fatalf("live seek %d: %v", n, err)
		}
		li, err := ls.Image()
		if err != nil {
			t.Fatal(err)
		}
		vi, err := vs.Image()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(li, vi) {
			t.Fatalf("cycle %d: loaded archive and live archive disagree", n)
		}
	}
}

// TestCrashArtifact: a recording directory abandoned without Finish (the
// crash case) must still load — torn event tail tolerated, end derived from
// the newest surviving checkpoint.
func TestCrashArtifact(t *testing.T) {
	dir := t.TempDir()
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()

	m := pipeline.New(cfg, p)
	rec, err := Attach(m, Config{Interval: 3000, Depth: 4, Dir: dir, Manifest: Manifest{AsmSource: loopSource}})
	if err != nil {
		t.Fatal(err)
	}
	stopAt := uint64(10_000)
	err = m.RunBreakable(64, func() bool { rec.Poll(); return m.Cycle() >= stopAt })
	if err != pipeline.ErrStopped {
		t.Fatalf("run: %v", err)
	}
	// No Finish: simulate a crash, including a torn trailing event line.
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if len(segs) == 0 {
		t.Fatal("no event segments on disk")
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"cycle":99999,"kind":"comm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	a, err := Load(dir)
	if err != nil {
		t.Fatalf("loading a crash artifact: %v", err)
	}
	newest := a.Ckpts[len(a.Ckpts)-1].Cycle
	if a.End < newest {
		t.Fatalf("end %d precedes newest checkpoint %d", a.End, newest)
	}
	s := NewSession(a)
	defer s.Close()
	if err := s.Seek(newest); err != nil {
		t.Fatalf("seek newest checkpoint of crash artifact: %v", err)
	}
}

// TestStepAndRStep: forward stepping replays in place (no restore); reverse
// stepping restores and lands on the identical image the forward pass saw.
func TestStepAndRStep(t *testing.T) {
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	a := record(t, cfg, p, Config{Interval: 3000, Depth: 64})

	s := NewSession(a)
	defer s.Close()
	start := a.Ckpts[1].Cycle + 100
	if err := s.Seek(start); err != nil {
		t.Fatal(err)
	}
	restores := s.Restores
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != start+10 {
		t.Fatalf("step landed at %d, want %d", s.Cycle(), start+10)
	}
	if s.Restores != restores {
		t.Fatalf("forward step restored a checkpoint (%d -> %d restores)", restores, s.Restores)
	}
	after, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RStep(10); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != start {
		t.Fatalf("rstep landed at %d, want %d", s.Cycle(), start)
	}
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	again, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, again) {
		t.Fatal("step -> rstep -> step did not reproduce the same image")
	}
}

// TestEventsBetween: the event timeline is cycle-ordered and sliceable.
func TestEventsBetween(t *testing.T) {
	p := loopProgram(t)
	cfg := pipeline.DefaultConfig()
	cfg.Chaos = chaos.DefaultConfig(3)
	a := record(t, cfg, p, Config{Interval: 3000, Depth: 64})
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
