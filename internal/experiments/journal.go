// Crash-resumable sweeps: a write-ahead journal of completed cells plus
// periodic machine checkpoints for cells in flight.
//
// The journal is a run ledger (internal/runstore) at the journal path: one
// runstore.Record per completed simulation, appended and fsynced the moment
// the cell finishes, so a sweep killed at any instant loses at most the work
// since the last checkpoint of the running cells, and runstore.Load or
// reusereport read the file like any ledger. Beside it, <path>.ckpt/ holds
// mid-cell machine snapshots (written atomically via tmp+rename) for cells
// that outlive the checkpoint interval.
//
// Resume replays the ledger — tolerating a torn final line, which is
// truncated away — rebuilds each record's RunResult, seeds the suite's
// result cache so finished cells are never re-simulated (and never
// double-counted: the cache, not the log, is authoritative), and restores
// in-flight cells from their checkpoints. A checkpoint that fails to decode,
// fails its fingerprint check, or was taken under a different configuration
// is deleted and the cell re-runs from scratch; resumption degrades, it never
// aborts. A record that cannot rebuild its result — a journal written before
// journals held ledger records has no kind and no energy — refuses the
// resume instead.
package experiments

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"reuseiq/internal/cell"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/runstore"
	"reuseiq/internal/snapshot"
)

// DefaultCheckpointEvery is the default mid-cell checkpoint interval in
// simulated cycles. Snapshotting costs well under a millisecond, so this
// keeps overhead far below a percent while bounding lost work.
const DefaultCheckpointEvery = 2_000_000

// Journal persists sweep progress. Attach one to a Suite with AttachJournal.
type Journal struct {
	led *runstore.Ledger // completed cells, fsynced per record
	dir string           // checkpoint directory

	// CheckpointEvery is the mid-cell checkpoint interval in simulated
	// cycles (DefaultCheckpointEvery when zero). Set it before the sweep
	// starts.
	CheckpointEvery uint64
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.led.Path() }

func (j *Journal) interval() uint64 {
	if j.CheckpointEvery > 0 {
		return j.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// openJournal opens the ledger at path, creating it (and the <path>.ckpt/
// directory) as needed, and returns the results its records hold.
func openJournal(path string, resume bool) (*Journal, []RunResult, error) {
	led, err := runstore.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: journal: %w", err)
	}
	results, err := journaledResults(path, led.Records(), resume)
	if err == nil {
		err = os.MkdirAll(path+".ckpt", 0o755)
	}
	if err != nil {
		led.Close()
		return nil, nil, fmt.Errorf("experiments: journal: %w", err)
	}
	j := &Journal{led: led, dir: path + ".ckpt"}
	for _, r := range results {
		// The cell is durably recorded; its mid-run checkpoint is stale.
		os.Remove(j.ckptPath(r.Spec))
	}
	return j, results, nil
}

// journaledResults rebuilds the result of every record in the journal at
// path. Without resume the journal must be empty.
func journaledResults(path string, recs []runstore.Record, resume bool) ([]RunResult, error) {
	if len(recs) > 0 && !resume {
		return nil, fmt.Errorf("%s already holds %d cells; resume it or remove it", path, len(recs))
	}
	results := make([]RunResult, len(recs))
	for i := range recs {
		r, err := resultOf(&recs[i])
		if err != nil {
			return nil, fmt.Errorf("%s: record %d (%s): %w", path, i+1, recs[i].Spec.Name(cell.Label), err)
		}
		results[i] = r
	}
	return results, nil
}

// resultOf rebuilds the RunResult a suite cell's ledger record was captured
// from: Power from its energies, Core from its reuse.* counters.
func resultOf(rec *runstore.Record) (RunResult, error) {
	switch rec.Kind {
	case runstore.KindCell:
	case "":
		return RunResult{}, errors.New("no kind and no energy: a journal written before journals held run-ledger records cannot resume; remove it and rerun the sweep")
	default:
		return RunResult{}, fmt.Errorf("a %q record is not a sweep cell", rec.Kind)
	}
	pr, err := runstore.ReportOf(rec.Energy, rec.Cycles, rec.Commits)
	if err != nil {
		return RunResult{}, err
	}
	cs, err := pipeline.CoreStats(rec.Metrics.Counter)
	if err != nil {
		return RunResult{}, err
	}
	r := RunResult{
		Spec:   rec.Spec,
		Cycles: rec.Cycles, Commits: rec.Commits, IPC: rec.IPC, Gated: rec.Gated,
		Power: pr, Core: cs, Retried: rec.Retried,
	}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	return r, nil
}

// Close closes the journal's ledger. Checkpoints need no closing: each is
// written and renamed whole.
func (j *Journal) Close() error { return j.led.Close() }

// record appends the cell's ledger record to the journal, fsynced, and
// removes the cell's now-stale checkpoint.
func (j *Journal) record(rec *runstore.Record) error {
	if err := j.led.Append(rec); err != nil {
		return fmt.Errorf("experiments: journal: %w", err)
	}
	os.Remove(j.ckptPath(rec.Spec))
	return nil
}

// ckptPath names the cell's checkpoint file.
func (j *Journal) ckptPath(sp cell.Spec) string {
	return filepath.Join(j.dir, sp.Name(cell.CheckpointFile))
}

// checkpoint atomically writes the machine's state to the cell's checkpoint
// file (tmp + fsync + rename). Failures must not stop the simulation — a
// missing checkpoint only costs re-simulation after a crash — so callers
// ignore the error or report it at most once and keep running.
func (j *Journal) checkpoint(sp cell.Spec, m *pipeline.Machine) error {
	tmp, err := os.CreateTemp(j.dir, "ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if err := snapshot.Save(w, m); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), j.ckptPath(sp))
}

// tryResume restores the cell's checkpoint into a machine, or returns nil if
// there is none or it is unusable (corrupt, truncated, or taken under a
// different configuration — e.g. by a sabotaged or retried earlier attempt).
// Unusable checkpoints are deleted so they are not retried forever.
func (j *Journal) tryResume(sp cell.Spec, cfg pipeline.Config, p *prog.Program) *pipeline.Machine {
	path := j.ckptPath(sp)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	m, err := snapshot.Restore(bufio.NewReader(f), cfg, p)
	if err != nil {
		os.Remove(path)
		return nil
	}
	return m
}

// AttachJournal opens (creating if needed) the journal at path and attaches
// it to the suite: recorded cells seed the result cache so they never
// re-simulate, every newly completed cell's ledger record is appended and
// fsynced, and long-running cells checkpoint every CheckpointEvery cycles so
// a killed sweep resumes mid-cell. With resume false the journal must be
// empty; with resume true existing records are replayed (a torn final line
// is tolerated and truncated away). Returns the journal and the number of
// cells recovered.
func (s *Suite) AttachJournal(path string, resume bool) (*Journal, int, error) {
	j, results, err := openJournal(path, resume)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	for _, r := range results {
		s.results[r.Spec] = r
	}
	s.journal = j
	s.mu.Unlock()
	return j, len(results), nil
}
