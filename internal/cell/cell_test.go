package cell_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"reuseiq/internal/altfe"
	"reuseiq/internal/cell"
	"reuseiq/internal/compiler"
	"reuseiq/internal/experiments"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/mem"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/runstore"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/workloads"
)

// TestSpecConfigMatchesSectionConfigs pins the machines the report's
// sections compare: the suite's IQ-64 cells that A3 and X1 read, A3's
// unrolled runs and X1's alternate front ends are built exactly like the
// configurations those sections built for themselves before every caller
// went through Spec. If either side changes, this fails instead of a
// section silently comparing against a different machine.
func TestSpecConfigMatchesSectionConfigs(t *testing.T) {
	base := pipeline.BaselineConfig().WithIQSize(64)
	x1Reuse := base
	x1Reuse.Reuse.Enabled = true
	x1Reuse.Reuse.NBLTSize = 8
	filter := base
	filter.Mem.L0I = mem.DefaultFilterCache()
	loop := base
	loop.LoopCache = &altfe.LoopCacheConfig{Entries: 32}

	baseSpec := cell.Spec{Kernel: "adi", IQSize: 64, NBLTSize: -1}
	reuseSpec := cell.Spec{Kernel: "adi", IQSize: 64, Reuse: true, NBLTSize: -1}
	with := func(sp cell.Spec, f func(*cell.Spec)) cell.Spec { f(&sp); return sp }
	for _, tc := range []struct {
		name string
		sp   cell.Spec
		want pipeline.Config
	}{
		{"A3/X1 baseline", baseSpec, base},
		{"A3 reuse", reuseSpec, pipeline.DefaultConfig().WithIQSize(64)},
		{"X1 reuse-iq", reuseSpec, x1Reuse},
		{"NBLT 8 is the default", with(reuseSpec, func(s *cell.Spec) { s.NBLTSize = 8 }), x1Reuse},
		{"A3 unrolled baseline", with(baseSpec, func(s *cell.Spec) { s.Unroll = 4 }), base},
		{"A3 unrolled reuse", with(reuseSpec, func(s *cell.Spec) { s.Unroll = 4 }), pipeline.DefaultConfig().WithIQSize(64)},
		{"X1 filter cache", with(baseSpec, func(s *cell.Spec) { s.FrontEnd = cell.FilterCache }), filter},
		{"X1 loop cache", with(baseSpec, func(s *cell.Spec) { s.FrontEnd = cell.LoopCache }), loop},
	} {
		if got := tc.sp.Config(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Spec%+v.Config() = %+v, want %+v", tc.name, tc.sp, got, tc.want)
		}
	}
}

// TestSpecProgramMatchesSectionPrograms pins that a spec's source variant
// compiles to the program the sections compiled by hand: the original, the
// loop-distributed and A3's 4x-unrolled kernel.
func TestSpecProgramMatchesSectionPrograms(t *testing.T) {
	k, _ := workloads.ByName("btrix")
	for _, tc := range []struct {
		sp cell.Spec
		ir *compiler.Program
	}{
		{cell.Spec{Kernel: "btrix"}, k.Prog},
		{cell.Spec{Kernel: "btrix", Distributed: true}, compiler.Distribute(k.Prog)},
		{cell.Spec{Kernel: "btrix", Unroll: 4}, compiler.Unroll(k.Prog, 4)},
	} {
		want, wantSrc, err := compiler.Compile(tc.ir)
		if err != nil {
			t.Fatal(err)
		}
		got, src, err := tc.sp.Program()
		if err != nil {
			t.Fatalf("%+v: %v", tc.sp, err)
		}
		if snapshot.ProgramHash(got) != snapshot.ProgramHash(want) || src != wantSrc {
			t.Errorf("Spec%+v.Program() differs from the hand-compiled program", tc.sp)
		}
	}
}

// TestSpecName pins the three name forms: the label of live sweep state,
// and the flight-recorder and checkpoint names, which keep the formats
// their artifacts had before.
func TestSpecName(t *testing.T) {
	dist := cell.Spec{Kernel: "adi", IQSize: 64, Reuse: true, Distributed: true, NBLTSize: -1}
	for _, tc := range []struct {
		sp   cell.Spec
		form cell.Form
		want string
	}{
		{dist, cell.Label, "adi iq=64 reuse dist"},
		{cell.Spec{Kernel: "wss", IQSize: 32}, cell.Label, "wss iq=32"},
		{cell.Spec{Kernel: "wss", IQSize: 64, Reuse: true, Unroll: 4}, cell.Label, "wss iq=64 reuse unroll4"},
		{cell.Spec{Kernel: "wss", IQSize: 64, FrontEnd: cell.FilterCache}, cell.Label, "wss iq=64 filter"},
		{dist, cell.RecorderDir, "adi-iq64-reusetrue-disttrue-s0-n8"},
		{cell.Spec{Kernel: "aps", IQSize: 32, Strategy: 1, NBLTSize: 0}, cell.RecorderDir, "aps-iq32-reusefalse-distfalse-s1-n0"},
		{dist, cell.CheckpointFile, "adi_iq64_rtrue_dtrue_s0_n8.ckpt"},
		{cell.Spec{Kernel: "a/b", IQSize: 32, NBLTSize: 8, FrontEnd: cell.LoopCache}, cell.CheckpointFile, "a_b_iq32_rfalse_dfalse_s0_n8_loopcache.ckpt"},
	} {
		if got := tc.sp.Name(tc.form); got != tc.want {
			t.Errorf("Spec%+v.Name(%d) = %q, want %q", tc.sp, tc.form, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := cell.Spec{Kernel: "tsf", IQSize: 32, Reuse: true, NBLTSize: -1}
	with := func(f func(*cell.Spec)) cell.Spec { sp := ok; f(&sp); return sp }
	if err := ok.Validate(); err != nil {
		t.Fatalf("%+v: %v", ok, err)
	}
	for _, sp := range []cell.Spec{
		with(func(s *cell.Spec) { s.Kernel = "" }), // assembly supplied beside the spec
		with(func(s *cell.Spec) { s.IQSize = 2 }),
		with(func(s *cell.Spec) { s.Unroll = 4; s.Distributed = true }),
		with(func(s *cell.Spec) { s.FrontEnd = cell.LoopCache; s.ChaosSeed = -1; s.MaxCycles = 1 }),
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("Spec%+v rejected: %v", sp, err)
		}
	}
	for _, sp := range []cell.Spec{
		with(func(s *cell.Spec) { s.IQSize = 1 }),
		with(func(s *cell.Spec) { s.IQSize = 0 }),
		with(func(s *cell.Spec) { s.IQSize = -4 }),
		with(func(s *cell.Spec) { s.Kernel = "nosuch" }),
		with(func(s *cell.Spec) { s.Unroll = -1 }),
		with(func(s *cell.Spec) { s.Kernel = ""; s.Distributed = true }),
		with(func(s *cell.Spec) { s.Kernel = ""; s.Unroll = 2 }),
		with(func(s *cell.Spec) { s.NBLTSize = -2 }),
		with(func(s *cell.Spec) { s.Strategy = 2 }),
		with(func(s *cell.Spec) { s.FrontEnd = 3 }),
	} {
		if err := sp.Validate(); err == nil {
			t.Errorf("Spec%+v accepted", sp)
		}
	}
}

// The records under testdata/parent were written at commit d3121de, before
// journal lines, ledger records and flight-recorder manifests embedded a
// Spec: reusebench -ablation strategy -journal -ledger (the journal line and
// the ledger record are the same cell), and reusesim -flightrec runs of
// "-kernel tsf -iq 32 -chaos 5" and "-kernel aps -distribute -baseline
// -iq 128". Each must decode to its cell, and that cell must rebuild the
// configuration the writer fingerprinted. The journal line also predates
// journals holding ledger records, so it no longer resumes.

// wssSingle is the journal's and the ledger's cell; parentWSSConfig is the
// config hash the ledger record's fingerprint carries.
var wssSingle = cell.Spec{Kernel: "wss", IQSize: 64, Reuse: true, Strategy: 1, NBLTSize: 8}

const parentWSSConfig = "c61546b0f53bf192"

func configHash(sp cell.Spec) string {
	return fmt.Sprintf("%016x", snapshot.ConfigHash(sp.Config()))
}

// attachParent copies one of the parent's files into a fresh directory and
// resumes it as a sweep journal, failing the test if any cell simulates.
func attachParent(t *testing.T, name string) (*experiments.Suite, *experiments.Journal, int, error) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite()
	s.Sabotage = func(sp cell.Spec) bool {
		t.Errorf("%s simulated instead of read from the journal", sp.Name(cell.Label))
		return true
	}
	j, n, err := s.AttachJournal(path, true)
	return s, j, n, err
}

// A journal is a run ledger, so the parent's ledger record resumes as a
// journaled cell.
func TestParentJournalResumes(t *testing.T) {
	s, j, n, err := attachParent(t, "ledger.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n != 1 {
		t.Fatalf("recovered %d cells, want 1", n)
	}
	r, err := s.Run(wssSingle)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec != wssSingle || r.Cycles != 120939 {
		t.Errorf("journaled cell reads %+v with %d cycles, want %+v with 120939", r.Spec, r.Cycles, wssSingle)
	}
	if got := configHash(r.Spec); got != parentWSSConfig {
		t.Errorf("journaled cell rebuilds config %s, the parent ran %s", got, parentWSSConfig)
	}
}

// The parent's journal line predates journals holding ledger records: it
// has no kind and no energy, so resuming it is refused, naming the file,
// rather than seeding the cell with zero energies.
func TestParentJournalRefused(t *testing.T) {
	_, j, _, err := attachParent(t, "journal.jsonl")
	if err == nil {
		j.Close()
		t.Fatal("resumed a journal written before journals held ledger records")
	}
	if !strings.Contains(err.Error(), "journal.jsonl") {
		t.Errorf("refusal does not name the file: %v", err)
	}
}

func TestParentLedgerRecord(t *testing.T) {
	recs, err := runstore.Load(filepath.Join("testdata", "parent", "ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("loaded %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Spec != wssSingle || rec.Strategy != 1 {
		t.Errorf("record decodes to %+v (strategy mirror %d), want %+v", rec.Spec, rec.Strategy, wssSingle)
	}
	if got := configHash(rec.Spec); got != rec.ConfigHash() || got != parentWSSConfig {
		t.Errorf("record's spec rebuilds config %s, its fingerprint says %s", got, rec.ConfigHash())
	}
}

func TestParentManifests(t *testing.T) {
	for dir, want := range map[string]cell.Spec{
		"manifest-tsf": {Kernel: "tsf", IQSize: 32, Reuse: true, NBLTSize: 8, ChaosSeed: 5},
		"manifest-aps": {Kernel: "aps", IQSize: 128, Distributed: true, NBLTSize: 8},
	} {
		// Load rebuilds the config and program from the manifest and
		// rejects a fingerprint mismatch.
		a, err := flightrec.Load(filepath.Join("testdata", "parent", dir))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if a.Man.Spec != want {
			t.Errorf("%s decodes to %+v, want %+v", dir, a.Man.Spec, want)
		}
		if got := configHash(want); got != a.Man.ConfigHash {
			t.Errorf("%s: spec rebuilds config %s, the parent ran %s", dir, got, a.Man.ConfigHash)
		}
	}
}
