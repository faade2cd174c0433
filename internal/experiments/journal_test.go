package experiments

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"reuseiq/internal/pipeline"
	"reuseiq/internal/runstore"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.jsonl")
}

// countRecords loads the journal on disk as the run ledger it is and returns
// its records.
func countRecords(t *testing.T, path string) []runstore.Record {
	t.Helper()
	recs, err := runstore.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// fakeRecord is a cell record for sp that no simulation of sp produced: a
// fresh tsf machine's counters and energies under sp's identity.
func fakeRecord(t *testing.T, sp Spec, cycles uint64) *runstore.Record {
	t.Helper()
	tsf := Spec{Kernel: "tsf", IQSize: 32, NBLTSize: -1}
	mp, err := NewSuite().programOf(tsf)
	if err != nil {
		t.Fatal(err)
	}
	m := pipeline.New(tsf.Config(), mp)
	defer m.Release()
	rec := runstore.FromMachine(sp.Normalized(), m)
	rec.Kind = runstore.KindCell
	rec.Cycles = cycles
	return &rec
}

// sameResult compares two results field for field, their errors by message.
func sameResult(a, b RunResult) bool {
	if (a.Err == nil) != (b.Err == nil) || a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	a.Err, b.Err = nil, nil
	return reflect.DeepEqual(a, b)
}

func TestJournalRecordsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	path := journalPath(t)
	specs := []Spec{
		{Kernel: "tsf", IQSize: 32, Reuse: true, NBLTSize: -1},
		{Kernel: "aps", IQSize: 32, Reuse: false, NBLTSize: -1},
	}

	a := NewSuite()
	ja, n, err := a.AttachJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh journal recovered %d cells", n)
	}
	want := make([]RunResult, len(specs))
	for i, sp := range specs {
		if want[i], err = a.Run(sp); err != nil {
			t.Fatal(err)
		}
	}
	ja.Close()

	recs := countRecords(t, path)
	if len(recs) != len(specs) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(specs))
	}
	for i, rec := range recs {
		if rec.Kind != runstore.KindCell || rec.Spec != specs[i].Normalized() || rec.Energy == nil {
			t.Errorf("record %d: kind %q, spec %+v, %d energies; want a cell record of %+v",
				i, rec.Kind, rec.Spec, len(rec.Energy), specs[i].Normalized())
		}
	}
	if _, err := os.Stat(path + ".csv"); !os.IsNotExist(err) {
		t.Errorf("journal left a CSV mirror beside it (%v)", err)
	}

	b := NewSuite()
	jb, n, err := b.AttachJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jb.Close()
	if n != len(specs) {
		t.Fatalf("resume recovered %d cells, want %d", n, len(specs))
	}
	for i, sp := range specs {
		got, err := b.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("resumed result for %v differs:\n got %+v\nwant %+v", sp, got, want[i])
		}
	}
	// Served from cache: no new records may have been appended.
	if got := countRecords(t, path); len(got) != len(specs) {
		t.Fatalf("resumed runs double-counted: %d records, want %d", len(got), len(specs))
	}
}

// TestJournalSeedsCacheWithoutSimulating proves a recorded cell is answered
// from the journal alone: the record names a kernel that does not exist, so
// any attempt to actually simulate it would fail loudly.
func TestJournalSeedsCacheWithoutSimulating(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Kernel: "no-such-kernel", IQSize: 48, Reuse: true, NBLTSize: -1}
	fake := fakeRecord(t, sp, 12345)
	fake.Commits = 678
	if err := j.record(fake); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s := NewSuite()
	js, n, err := s.AttachJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	if n != 1 {
		t.Fatalf("recovered %d cells, want 1", n)
	}
	got, err := s.Run(sp)
	if err != nil {
		t.Fatalf("journaled cell re-simulated (and failed): %v", err)
	}
	if got.Cycles != fake.Cycles || got.Commits != fake.Commits {
		t.Errorf("got %+v, want the journaled record", got)
	}
}

func TestJournalFreshRefusesExistingRecords(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(fakeRecord(t, Spec{Kernel: "x", IQSize: 32, NBLTSize: 8}, 0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := NewSuite().AttachJournal(path, false); err == nil {
		t.Fatal("fresh attach accepted a journal with records")
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(fakeRecord(t, Spec{Kernel: "x", IQSize: 32, NBLTSize: 8}, 99)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: a partial JSON object with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"kernel":"y","iq":6`)
	f.Close()

	s := NewSuite()
	j2, n, err := s.AttachJournal(path, true)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer j2.Close()
	if n != 1 {
		t.Fatalf("recovered %d cells, want the 1 complete record", n)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != good.Size() {
		t.Errorf("torn tail not truncated: %d bytes, want %d", st.Size(), good.Size())
	}
	// Appending after the truncation must yield a well-formed log again.
	if err := j2.record(fakeRecord(t, Spec{Kernel: "z", IQSize: 64, NBLTSize: 8}, 0)); err != nil {
		t.Fatal(err)
	}
	if got := countRecords(t, path); len(got) != 2 {
		t.Fatalf("post-truncation journal holds %d records, want 2", len(got))
	}
}

func TestJournalWholeLineGarbageEndsReplay(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte("!!not json!!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	j, n, err := s.AttachJournal(path, true)
	if err != nil {
		t.Fatalf("corrupt journal rejected instead of degraded: %v", err)
	}
	defer j.Close()
	if n != 0 {
		t.Fatalf("recovered %d cells from garbage", n)
	}
}

func TestJournalVersionMismatch(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(`{"v":2,"kernel":"x","iq":32,"nblt":8}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewSuite().AttachJournal(path, true); err == nil {
		t.Fatal("future-version record accepted")
	}
}

// TestJournalRefusesRecordsItCannotRebuild: a line from a journal written
// before journals held run-ledger records, a reusesim run's record and cell
// records missing an energy or a reuse counter each refuse the resume with
// an error naming the file, instead of seeding zeros into the cache.
func TestJournalRefusesRecordsItCannotRebuild(t *testing.T) {
	sp := Spec{Kernel: "tsf", IQSize: 32, NBLTSize: 8}
	cases := map[string]func() []byte{
		"pre-ledger line": func() []byte {
			return []byte(`{"v":1,"kernel":"tsf","iq":32,"nblt":8,"cycles":99,"power":{"Cycles":99},"core":{}}` + "\n")
		},
		"sim record": func() []byte {
			rec := fakeRecord(t, sp, 99)
			rec.Kind = runstore.KindSim
			return marshalRecord(t, rec)
		},
		"missing energy": func() []byte {
			rec := fakeRecord(t, sp, 99)
			delete(rec.Energy, "issueq")
			return marshalRecord(t, rec)
		},
		"missing counter": func() []byte {
			rec := fakeRecord(t, sp, 99)
			cs := rec.Metrics.Counters[:0]
			for _, c := range rec.Metrics.Counters {
				if c.Name != "reuse.revokes.exit" {
					cs = append(cs, c)
				}
			}
			rec.Metrics.Counters = cs
			return marshalRecord(t, rec)
		},
	}
	for name, line := range cases {
		t.Run(name, func(t *testing.T) {
			path := journalPath(t)
			if err := os.WriteFile(path, line(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := NewSuite().AttachJournal(path, true)
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("resume accepted the record or hid the file: %v", err)
			}
		})
	}
}

// marshalRecord renders rec as the ledger line Append would write.
func marshalRecord(t *testing.T, rec *runstore.Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one.jsonl")
	l, err := runstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalRoundTripsResults: a cell resumed from its journal record is
// the cell as simulated, field for field — a chaos cell's forced revokes
// (Core.RevokesForced has no counter of its own) and a degraded, retried
// cell included.
func TestJournalRoundTripsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	specs := []Spec{
		{Kernel: "wss", IQSize: 32, Reuse: true, NBLTSize: -1},
		{Kernel: "aps", IQSize: 32, Reuse: true, NBLTSize: -1, ChaosSeed: 5},
		{Kernel: "tsf", IQSize: 32, NBLTSize: -1},
	}
	sabotaged := specs[2].Normalized()
	path := journalPath(t)
	a := NewSuite()
	a.Sabotage = func(sp Spec) bool { return sp == sabotaged }
	ja, _, err := a.AttachJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]RunResult, len(specs))
	for i, sp := range specs {
		if want[i], err = a.Run(sp); err != nil {
			t.Fatal(err)
		}
	}
	ja.Close()
	if want[1].Core.RevokesForced == 0 {
		t.Fatal("the chaos cell forced no revokes; pick a seed that does")
	}
	if want[2].Err == nil || !want[2].Retried {
		t.Fatalf("the sabotaged cell did not degrade: %+v", want[2])
	}

	b := NewSuite()
	b.Sabotage = func(sp Spec) bool {
		t.Errorf("%v simulated instead of read from the journal", sp)
		return false
	}
	jb, n, err := b.AttachJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jb.Close()
	if n != len(specs) {
		t.Fatalf("recovered %d cells, want %d", n, len(specs))
	}
	for i, sp := range specs {
		got, err := b.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want[i]) {
			t.Errorf("%v resumes as\n %+v\nsimulated as\n %+v", sp, got, want[i])
		}
	}
}

// TestJournalCheckpointMidCellResume pins the mid-cell path deterministically:
// a cell is checkpointed partway, the checkpoint restores, and a suite that
// resumes from it produces exactly the result of an uninterrupted run.
func TestJournalCheckpointMidCellResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	sp := Spec{Kernel: "tsf", IQSize: 32, Reuse: true, NBLTSize: -1}
	k := sp.Normalized()
	cfg := sp.Config()

	straight := NewSuite()
	want, err := straight.Run(sp)
	if err != nil {
		t.Fatal(err)
	}

	path := journalPath(t)
	j, _, err := openJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Plant a genuine mid-run checkpoint, as a killed sweep would leave.
	mp, err := NewSuite().programOf(sp)
	if err != nil {
		t.Fatal(err)
	}
	m := pipeline.New(cfg, mp)
	if err := m.RunBreakable(want.Cycles/3, func() bool { return true }); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("mid-run stop: %v", err)
	}
	if err := j.checkpoint(k, m); err != nil {
		t.Fatal(err)
	}
	midCycle := m.C.Cycles

	resumed := NewSuite()
	j2, n, err := resumed.AttachJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n != 0 {
		t.Fatalf("recovered %d completed cells, want 0 (cell was in flight)", n)
	}
	// The checkpoint must actually restore to the planted cycle.
	if rm := j2.tryResume(k, cfg, mp); rm == nil {
		t.Fatal("planted checkpoint did not restore")
	} else if rm.C.Cycles != midCycle {
		t.Fatalf("restored at cycle %d, checkpointed at %d", rm.C.Cycles, midCycle)
	} else {
		rm.Release()
	}

	got, err := resumed.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed cell differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	// Completion must retire the checkpoint.
	if _, err := os.Stat(j2.ckptPath(k)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after cell completion: %v", err)
	}
}

// TestJournalBadCheckpointDegrades plants unusable checkpoints — corrupt
// bytes, a truncated image, and one taken under a different configuration —
// and requires the cell to fall back to a clean full run with an identical
// result, deleting the bad file.
func TestJournalBadCheckpointDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	sp := Spec{Kernel: "aps", IQSize: 32, Reuse: true, NBLTSize: -1}
	k := sp.Normalized()

	straight := NewSuite()
	want, err := straight.Run(sp)
	if err != nil {
		t.Fatal(err)
	}

	plantMismatched := func(t *testing.T, j *Journal) {
		// A checkpoint from a different IQ size: fingerprint must reject it.
		other := Spec{Kernel: "aps", IQSize: 64, Reuse: true, NBLTSize: -1}
		mp, err := NewSuite().programOf(other)
		if err != nil {
			t.Fatal(err)
		}
		m := pipeline.New(other.Config(), mp)
		if err := m.RunBreakable(500, func() bool { return true }); !errors.Is(err, pipeline.ErrStopped) {
			t.Fatalf("mid-run stop: %v", err)
		}
		if err := j.checkpoint(k, m); err != nil {
			t.Fatal(err)
		}
		m.Release()
	}

	cases := []struct {
		name  string
		plant func(t *testing.T, j *Journal)
	}{
		{"corrupt", func(t *testing.T, j *Journal) {
			if err := os.WriteFile(j.ckptPath(k), []byte("REUSEIQSgarbage garbage garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, j *Journal) {
			mp, err := NewSuite().programOf(sp)
			if err != nil {
				t.Fatal(err)
			}
			m := pipeline.New(sp.Config(), mp)
			if err := m.RunBreakable(500, func() bool { return true }); !errors.Is(err, pipeline.ErrStopped) {
				t.Fatalf("mid-run stop: %v", err)
			}
			if err := j.checkpoint(k, m); err != nil {
				t.Fatal(err)
			}
			m.Release()
			img, err := os.ReadFile(j.ckptPath(k))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(j.ckptPath(k), img[:len(img)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"config-mismatch", plantMismatched},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			s := NewSuite()
			j, _, err := s.AttachJournal(path, true)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			tc.plant(t, j)
			got, err := s.Run(sp)
			if err != nil {
				t.Fatalf("bad checkpoint aborted the cell: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("degraded run differs from clean run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCrashResumeKill9 is the end-to-end crash drill: a child process sweeps
// with a journal attached, the parent SIGKILLs it mid-sweep, resumes the
// journal in-process, and requires the finished sweep — figure rendering
// included — to be identical to one that was never interrupted.
func TestCrashResumeKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep")
	}
	path := os.Getenv("REUSEIQ_JOURNAL_PATH")
	if os.Getenv("REUSEIQ_JOURNAL_CHILD") == "1" {
		childSweep(t, path)
		return
	}

	path = filepath.Join(t.TempDir(), "sweep.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashResumeKill9$")
	cmd.Env = append(os.Environ(), "REUSEIQ_JOURNAL_CHILD=1", "REUSEIQ_JOURNAL_PATH="+path)
	var childOut bytes.Buffer
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill as soon as the journal shows progress, which lands mid-sweep with
	// later cells unrecorded (and, typically, one in flight).
	deadline := time.Now().Add(60 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		if recs, err := runstore.Load(path); err == nil {
			if len(recs) >= 2 {
				cmd.Process.Kill()
				killed = true
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	err := cmd.Wait()
	if !killed {
		t.Fatalf("child produced no journal records to kill over: %v\n%s", err, childOut.String())
	}
	if err == nil {
		t.Log("child finished before the kill landed; resume still verified below")
	}

	recsAtKill := countRecords(t, path)
	if len(recsAtKill) == len(childSpecs()) {
		t.Log("kill landed after the final cell; resume degenerates to pure replay")
	}

	resumed := NewSuite()
	j, n, err := resumed.AttachJournal(path, true)
	if err != nil {
		t.Fatalf("resume after kill -9: %v", err)
	}
	defer j.Close()
	if n != len(recsAtKill) {
		t.Fatalf("recovered %d cells, journal holds %d", n, len(recsAtKill))
	}
	if err := resumed.Prewarm(childSpecs()); err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}

	straight := NewSuite()
	if err := straight.Prewarm(childSpecs()); err != nil {
		t.Fatal(err)
	}
	for _, sp := range childSpecs() {
		a, err := resumed.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := straight.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: resumed result differs from uninterrupted run:\n got %+v\nwant %+v", sp, a, b)
		}
	}

	// The figures the sweep feeds must come out byte-identical.
	fa, err := resumed.Figure5([]int{32})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := straight.Figure5([]int{32})
	if err != nil {
		t.Fatal(err)
	}
	var ca, cb bytes.Buffer
	if err := fa.WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if err := fb.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Errorf("Figure 5 CSV differs after crash resume:\n%s\nvs\n%s", ca.String(), cb.String())
	}
	if fa.String() != fb.String() {
		t.Error("Figure 5 rendering differs after crash resume")
	}

	// Every cell exactly once: completing the sweep must not have re-recorded
	// the cells recovered from the journal.
	final := countRecords(t, path)
	if len(final) != len(childSpecs()) {
		t.Fatalf("journal holds %d records for %d specs", len(final), len(childSpecs()))
	}
	seen := map[Spec]bool{}
	for _, rec := range final {
		if seen[rec.Spec] {
			t.Errorf("cell %+v recorded twice", rec.Spec)
		}
		seen[rec.Spec] = true
	}
}

// childSpecs is the sweep the crash drill runs: Figure 5's IQ=32 column.
func childSpecs() []Spec { return sweepSpecs([]int{32}) }

// childSweep is the subprocess half of TestCrashResumeKill9: sweep with a
// journal and an aggressive checkpoint interval, expecting to be killed.
func childSweep(t *testing.T, path string) {
	if path == "" {
		t.Fatal("REUSEIQ_JOURNAL_PATH not set")
	}
	s := NewSuite()
	s.Parallelism = 1 // serialize so the parent's kill lands mid-cell, not between sweeps
	j, _, err := s.AttachJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.CheckpointEvery = 20_000
	if err := s.Prewarm(childSpecs()); err != nil {
		t.Fatal(err)
	}
}
