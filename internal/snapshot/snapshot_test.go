package snapshot_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reuseiq/internal/altfe"
	"reuseiq/internal/asm"
	"reuseiq/internal/bpred"
	"reuseiq/internal/chaos"
	"reuseiq/internal/compiler"
	"reuseiq/internal/core"
	"reuseiq/internal/lockstep"
	"reuseiq/internal/mem"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/workloads"
)

// commitRec is the commit-stream fingerprint the lockstep tests compare:
// if two machines commit the same instructions at the same cycles with the
// same results, their executions are identical in every way that matters.
type commitRec struct {
	Cycle, Seq uint64
	PC         uint32
	Reused     bool
	HasDest    bool
	DestI      int32
	DestF      float64
}

func recordCommits(m *pipeline.Machine, into *[]commitRec) {
	m.OnCommit = func(c pipeline.Commit) error {
		*into = append(*into, commitRec{
			Cycle: c.Cycle, Seq: c.Seq, PC: c.PC, Reused: c.Reused,
			HasDest: c.HasDest, DestI: c.DestI, DestF: c.DestF,
		})
		return nil
	}
}

// microloop is a small reuse-friendly program: a tight capturable loop long
// enough to survive a few thousand cycles of hopping.
func microloop() *prog.Program {
	return asm.MustAssemble(`
	li   $r2, 0
	li   $r3, 3000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
}

func kernelProg(t *testing.T, name string) *prog.Program {
	t.Helper()
	k, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no kernel %q", name)
	}
	mp, _, err := compiler.Compile(k.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

// straightRun executes p under cfg without interruption and returns its
// commit stream and final snapshot image.
func straightRun(t *testing.T, cfg pipeline.Config, p *prog.Program) ([]commitRec, []byte) {
	t.Helper()
	m := pipeline.New(cfg, p)
	var commits []commitRec
	recordCommits(m, &commits)
	if err := m.Run(); err != nil {
		t.Fatalf("straight run: %v", err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, m); err != nil {
		t.Fatalf("straight run final save: %v", err)
	}
	return commits, buf.Bytes()
}

// chainRun executes p under cfg while repeatedly stopping at pseudo-random
// cycles, saving a snapshot, restoring it into a brand-new machine (with the
// per-cycle invariant checker attached), and continuing there. It returns
// the stitched commit stream, the final snapshot image, the number of
// save/restore hops performed, and the set of controller states observed at
// snapshot instants.
func chainRun(t *testing.T, cfg pipeline.Config, p *prog.Program, seed int64) ([]commitRec, []byte, int, map[core.State]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	states := map[core.State]bool{}
	var commits []commitRec
	hops := 0

	m := pipeline.New(cfg, p)
	recordCommits(m, &commits)
	for {
		interval := uint64(1 + rng.Intn(997))
		err := m.RunBreakable(interval, func() bool { return true })
		if err == nil {
			break // halted
		}
		if !errors.Is(err, pipeline.ErrStopped) {
			t.Fatalf("chain run: %v", err)
		}
		states[m.Ctl.ExportState().State] = true

		var buf bytes.Buffer
		if err := snapshot.Save(&buf, m); err != nil {
			t.Fatalf("hop %d save: %v", hops, err)
		}
		m2, err := snapshot.Restore(bytes.NewReader(buf.Bytes()), cfg, p)
		if err != nil {
			t.Fatalf("hop %d restore: %v", hops, err)
		}
		// A restored machine must re-serialize to the identical image.
		var buf2 bytes.Buffer
		if err := snapshot.Save(&buf2, m2); err != nil {
			t.Fatalf("hop %d re-save: %v", hops, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("hop %d: restored machine re-serializes differently (%d vs %d bytes)",
				hops, buf.Len(), buf2.Len())
		}
		recordCommits(m2, &commits)
		lockstep.AttachChecker(m2)
		m = m2
		hops++
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, m); err != nil {
		t.Fatalf("chain final save: %v", err)
	}
	return commits, buf.Bytes(), hops, states
}

// TestSaveRestoreLockstep is the tentpole correctness statement: execution
// that hops across an arbitrary number of save/restore boundaries at
// pseudo-random cycles is bit-identical — same commit stream, same final
// snapshot image — to execution that never stopped. Runs cover reuse on/off,
// chaos injection on/off, the loop-cache alternative front end, and both a
// tight microloop and real kernels; across all of them well over 100
// randomized snapshot cycles are exercised, and snapshots are verified to
// land mid-Buffering and mid-Reuse, not just in the Normal state.
func TestSaveRestoreLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("full lockstep simulations")
	}
	chaosCfg := func(seed int64) chaos.Config {
		c := chaos.DefaultConfig(seed)
		return c
	}
	lcCfg := pipeline.BaselineConfig()
	lcCfg.LoopCache = &altfe.LoopCacheConfig{Entries: 32}

	cases := []struct {
		name string
		cfg  pipeline.Config
		prog func(*testing.T) *prog.Program
		seed int64
	}{
		{"microloop/reuse", pipeline.DefaultConfig(), func(*testing.T) *prog.Program { return microloop() }, 1},
		{"microloop/baseline", pipeline.BaselineConfig(), func(*testing.T) *prog.Program { return microloop() }, 2},
		{"microloop/chaos", func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Chaos = chaosCfg(7)
			return c
		}(), func(*testing.T) *prog.Program { return microloop() }, 3},
		{"microloop/loopcache", lcCfg, func(*testing.T) *prog.Program { return microloop() }, 4},
		{"aps/reuse", pipeline.DefaultConfig(), func(t *testing.T) *prog.Program { return kernelProg(t, "aps") }, 5},
		{"aps/chaos", func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Chaos = chaosCfg(11)
			return c
		}(), func(t *testing.T) *prog.Program { return kernelProg(t, "aps") }, 6},
		{"tsf/reuse", pipeline.DefaultConfig(), func(t *testing.T) *prog.Program { return kernelProg(t, "tsf") }, 7},
		{"eflux/chaos", func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Chaos = chaosCfg(13)
			return c
		}(), func(t *testing.T) *prog.Program { return kernelProg(t, "eflux") }, 8},
	}

	totalHops := 0
	statesSeen := map[core.State]bool{}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog(t)
			want, wantFinal := straightRun(t, tc.cfg, p)
			got, gotFinal, hops, states := chainRun(t, tc.cfg, p, tc.seed)

			if len(got) != len(want) {
				t.Fatalf("chain committed %d instructions, straight run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("commit %d diverges:\nchain:    %+v\nstraight: %+v", i, got[i], want[i])
				}
			}
			if !bytes.Equal(gotFinal, wantFinal) {
				t.Fatalf("final snapshot images differ (%d vs %d bytes)", len(gotFinal), len(wantFinal))
			}
			if hops == 0 {
				t.Fatalf("run finished before any snapshot hop; shorten the hop interval")
			}
			totalHops += hops
			for s := range states {
				statesSeen[s] = true
			}
		})
	}
	if t.Failed() {
		return
	}
	if totalHops < 100 {
		t.Errorf("only %d randomized snapshot cycles exercised, want >= 100", totalHops)
	}
	for _, s := range []core.State{core.Normal, core.Buffering, core.Reuse} {
		if !statesSeen[s] {
			t.Errorf("no snapshot was taken in controller state %v; coverage hole", s)
		}
	}
}

// tinyConfig keeps structures small so fault-injection sweeps and golden
// files stay fast and compact.
func tinyConfig() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.IQSize = 16
	c.ROBSize = 16
	c.LSQSize = 8
	c.Mem = mem.HierarchyConfig{
		L1I:         mem.CacheConfig{Name: "il1", Sets: 8, Ways: 1, LineBytes: 32, HitLat: 1},
		L1D:         mem.CacheConfig{Name: "dl1", Sets: 8, Ways: 1, LineBytes: 32, HitLat: 1},
		L2:          mem.CacheConfig{Name: "ul2", Sets: 16, Ways: 1, LineBytes: 64, HitLat: 8},
		ITLB:        mem.TLBConfig{Name: "itlb", Sets: 2, Ways: 2, PageBytes: 4096, MissLat: 3},
		DTLB:        mem.TLBConfig{Name: "dtlb", Sets: 2, Ways: 2, PageBytes: 4096, MissLat: 3},
		MemLatFirst: 80, MemLatRest: 8,
	}
	c.Bpred = bpred.Config{BimodEntries: 16, BTBSets: 8, BTBWays: 1, RASEntries: 4}
	return c
}

// tinySnapshot runs the microloop for a fixed number of cycles under
// tinyConfig and returns the snapshot image (deterministic across runs).
func tinySnapshot(t *testing.T) ([]byte, pipeline.Config, *prog.Program) {
	t.Helper()
	cfg := tinyConfig()
	p := microloop()
	m := pipeline.New(cfg, p)
	err := m.RunBreakable(300, func() bool { return true })
	if !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("expected break, got %v", err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cfg, p
}

// TestRestoreRejectsMismatch pins the header checks: wrong magic, wrong
// version, unknown flags, and fingerprint mismatches each fail with their
// sentinel error.
func TestRestoreRejectsMismatch(t *testing.T) {
	img, cfg, p := tinySnapshot(t)

	restore := func(b []byte, cfg pipeline.Config, p *prog.Program) error {
		_, err := snapshot.Restore(bytes.NewReader(b), cfg, p)
		return err
	}

	bad := append([]byte(nil), img...)
	copy(bad, "NOTASNAP")
	if err := restore(bad, cfg, p); !errors.Is(err, snapshot.ErrFormat) {
		t.Errorf("bad magic: got %v, want ErrFormat", err)
	}

	bad = append([]byte(nil), img...)
	bad[8] = 99 // version field
	if err := restore(bad, cfg, p); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}

	bad = append([]byte(nil), img...)
	bad[12] = 1 // flags field
	if err := restore(bad, cfg, p); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("unknown flags: got %v, want ErrVersion", err)
	}

	otherCfg := cfg
	otherCfg.IQSize = 32
	if err := restore(img, otherCfg, p); !errors.Is(err, snapshot.ErrFingerprint) {
		t.Errorf("config mismatch: got %v, want ErrFingerprint", err)
	}

	otherProg := asm.MustAssemble("li $r2, 1\nhalt\n")
	if err := restore(img, cfg, otherProg); !errors.Is(err, snapshot.ErrFingerprint) {
		t.Errorf("program mismatch: got %v, want ErrFingerprint", err)
	}

	// An undamaged image must still restore after all that copying.
	if err := restore(img, cfg, p); err != nil {
		t.Fatalf("pristine image failed to restore: %v", err)
	}
}

// TestRestoreRejectsCorruption sweeps single-byte corruption across the
// whole image and truncation at every prefix length: every damaged stream
// must produce an error — CRC mismatch, structural failure, or truncation —
// and never a panic or a silently-wrong machine.
func TestRestoreRejectsCorruption(t *testing.T) {
	img, cfg, p := tinySnapshot(t)

	for pos := 0; pos < len(img); pos += 7 {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0x40
		if _, err := snapshot.Restore(bytes.NewReader(bad), cfg, p); err == nil {
			t.Fatalf("flip at byte %d of %d: restore accepted a corrupt image", pos, len(img))
		}
	}
	for n := 0; n < len(img); n += 13 {
		if _, err := snapshot.Restore(bytes.NewReader(img[:n]), cfg, p); err == nil {
			t.Fatalf("truncation to %d of %d bytes: restore accepted it", n, len(img))
		}
	}
	// The last byte (inside the CRC trailer) and one-byte-short are the
	// classic off-by-one spots; hit them explicitly.
	if _, err := snapshot.Restore(bytes.NewReader(img[:len(img)-1]), cfg, p); err == nil {
		t.Fatal("one-byte-short image accepted")
	}
	bad := append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0xff
	if _, err := snapshot.Restore(bytes.NewReader(bad), cfg, p); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("corrupt CRC trailer: got %v, want ErrChecksum", err)
	}
}

// TestChaosStreamPositionBound pins the decoder's replay bound: an image
// claiming an absurd PRNG position for its cycle count is rejected rather
// than replayed (which would be an effective infinite loop).
func TestChaosStreamPositionBound(t *testing.T) {
	cfg := tinyConfig()
	cfg.Chaos = chaos.DefaultConfig(42)
	p := microloop()
	m := pipeline.New(cfg, p)
	err := m.RunBreakable(100, func() bool { return true })
	if !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("expected break, got %v", err)
	}
	st := m.Snapshot()
	st.Chaos.Draws = 1 << 62
	if _, err := pipeline.Resume(cfg, p, st); err == nil {
		t.Fatal("resume accepted an absurd chaos stream position")
	} else if want := "chaos stream position"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("got %v, want error mentioning %q", err, want)
	}
}

// TestSelectKeySeqBound pins the resume-time check behind the select
// stage's packed keys: an image whose next seq, or a live issue-queue
// entry's seq, does not fit beside a slot is rejected instead of failing
// mid-run.
func TestSelectKeySeqBound(t *testing.T) {
	cfg, p := tinyConfig(), microloop()
	m := pipeline.New(cfg, p)
	if err := m.RunBreakable(300, func() bool { return true }); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("expected break, got %v", err)
	}
	corrupt := map[string]func(st *pipeline.MachineState) bool{
		"next seq": func(st *pipeline.MachineState) bool {
			st.NextSeq = 1 << 62
			return true
		},
		"IQ slot": func(st *pipeline.MachineState) bool {
			for i := range st.IQ.Slots {
				if st.IQ.Meta[i].Valid {
					st.IQ.Slots[i].Seq = 1 << 62
					return true
				}
			}
			return false
		},
	}
	for what, f := range corrupt {
		st := m.Snapshot()
		if !f(st) {
			t.Fatalf("%s: no live entry to corrupt", what)
		}
		if _, err := pipeline.Resume(cfg, p, st); err == nil {
			t.Fatalf("%s: resume accepted a seq beyond the select-key bound", what)
		} else if !strings.Contains(err.Error(), what) || !strings.Contains(err.Error(), "select-key bound") {
			t.Fatalf("%s: got %v, want an error naming it and the select-key bound", what, err)
		}
	}
}

// TestSnapshotDeterminism double-checks that saving the same machine twice
// yields identical bytes (map iteration anywhere in the export path would
// break this, and with it the lockstep byte comparisons).
func TestSnapshotDeterminism(t *testing.T) {
	img1, _, _ := tinySnapshot(t)
	img2, _, _ := tinySnapshot(t)
	if !bytes.Equal(img1, img2) {
		t.Fatal("two identical runs produced different snapshot images")
	}
}

// TestResumeIsolation verifies a restored machine does not alias state with
// the image or a sibling restore: two machines restored from the same bytes
// and run further must not perturb each other.
func TestResumeIsolation(t *testing.T) {
	img, cfg, p := tinySnapshot(t)
	m1, err := snapshot.Restore(bytes.NewReader(img), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := snapshot.Restore(bytes.NewReader(img), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	// m2 untouched by m1's run: it must still serialize to the original image.
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), img) {
		t.Fatal("running one restored machine perturbed a sibling restored from the same image")
	}
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if m1.C.Cycles != m2.C.Cycles || m1.C.Commits != m2.C.Commits {
		t.Fatalf("sibling restores diverged: %d/%d cycles, %d/%d commits",
			m1.C.Cycles, m2.C.Cycles, m1.C.Commits, m2.C.Commits)
	}
}

// TestHashesDiscriminate sanity-checks the fingerprint functions actually
// move when the inputs move (a constant hash would make ErrFingerprint
// vacuous).
func TestHashesDiscriminate(t *testing.T) {
	base := pipeline.DefaultConfig()
	variants := []pipeline.Config{
		func() pipeline.Config { c := base; c.IQSize = 128; return c }(),
		func() pipeline.Config { c := base; c.Reuse.Enabled = false; return c }(),
		func() pipeline.Config { c := base; c.Chaos = chaos.DefaultConfig(1); return c }(),
		func() pipeline.Config { c := base; c.LoopCache = &altfe.LoopCacheConfig{Entries: 32}; return c }(),
	}
	h0 := snapshot.ConfigHash(base)
	for i, v := range variants {
		if snapshot.ConfigHash(v) == h0 {
			t.Errorf("config variant %d hashes like the base", i)
		}
	}
	// Two heap copies of an identical LoopCache config must hash identically
	// (the pointer is flattened, not printed).
	a, b := base, base
	a.LoopCache = &altfe.LoopCacheConfig{Entries: 32}
	b.LoopCache = &altfe.LoopCacheConfig{Entries: 32}
	if snapshot.ConfigHash(a) != snapshot.ConfigHash(b) {
		t.Error("identical configs with distinct LoopCache pointers hash differently")
	}

	p1 := microloop()
	p2 := asm.MustAssemble("li $r2, 1\nhalt\n")
	if snapshot.ProgramHash(p1) == snapshot.ProgramHash(p2) {
		t.Error("different programs hash identically")
	}
	if snapshot.ProgramHash(p1) != snapshot.ProgramHash(microloop()) {
		t.Error("identical programs hash differently")
	}
}

// TestSaveToFailingWriter pins error propagation on the save side.
func TestSaveToFailingWriter(t *testing.T) {
	cfg := tinyConfig()
	p := microloop()
	m := pipeline.New(cfg, p)
	if err := snapshot.Save(failingWriter{}, m); err == nil {
		t.Fatal("save to a failing writer reported success")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
