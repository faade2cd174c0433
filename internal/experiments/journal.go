// Crash-resumable sweeps: a write-ahead journal of completed cells plus
// periodic machine checkpoints for cells in flight.
//
// The journal is a JSONL file: one self-contained record per completed
// simulation, appended and fsynced the moment the cell finishes, so a sweep
// killed at any instant loses at most the work since the last checkpoint of
// the running cells. Alongside it, <path>.csv receives one flat CSV row per
// cell with the same durability, and <path>.ckpt/ holds mid-cell machine
// snapshots (written atomically via tmp+rename) for cells that outlive the
// checkpoint interval.
//
// Resume replays the journal — tolerating a torn final line, which is
// truncated away — seeds the suite's result cache so finished cells are
// never re-simulated (and never double-counted: the cache, not the log, is
// authoritative), and restores in-flight cells from their checkpoints. A
// checkpoint that fails to decode, fails its fingerprint check, or was taken
// under a different configuration is deleted and the cell re-runs from
// scratch; resumption degrades, it never aborts.
package experiments

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"reuseiq/internal/cell"
	"reuseiq/internal/core"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
)

// DefaultCheckpointEvery is the default mid-cell checkpoint interval in
// simulated cycles. Snapshotting costs well under a millisecond, so this
// keeps overhead far below a percent while bounding lost work.
const DefaultCheckpointEvery = 2_000_000

// journalVersion guards the record schema.
const journalVersion = 1

// cellRecord is one journal line: the cell's spec plus its result.
type cellRecord struct {
	V int `json:"v"`
	cell.Spec

	Cycles  uint64       `json:"cycles"`
	Commits uint64       `json:"commits"`
	IPC     float64      `json:"ipc"`
	Gated   float64      `json:"gated"`
	Power   power.Report `json:"power"`
	Core    core.Stats   `json:"core"`
	Err     string       `json:"err,omitempty"`
	Retried bool         `json:"retried,omitempty"`
}

func recordOf(r RunResult) cellRecord {
	rec := cellRecord{
		V: journalVersion, Spec: r.Spec,
		Cycles: r.Cycles, Commits: r.Commits, IPC: r.IPC, Gated: r.Gated,
		Power: r.Power, Core: r.Core, Retried: r.Retried,
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

func (rec cellRecord) result() RunResult {
	r := RunResult{
		Spec:   rec.Spec,
		Cycles: rec.Cycles, Commits: rec.Commits, IPC: rec.IPC, Gated: rec.Gated,
		Power: rec.Power, Core: rec.Core, Retried: rec.Retried,
	}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	return r
}

// Journal persists sweep progress. Attach one to a Suite with AttachJournal.
type Journal struct {
	mu   sync.Mutex
	f    *os.File // JSONL of completed cells, fsynced per record
	csv  *os.File // flat per-cell CSV mirror, flushed per row
	dir  string   // checkpoint directory
	path string

	// CheckpointEvery is the mid-cell checkpoint interval in simulated
	// cycles (DefaultCheckpointEvery when zero). Set it before the sweep
	// starts.
	CheckpointEvery uint64
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

func (j *Journal) interval() uint64 {
	if j.CheckpointEvery > 0 {
		return j.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// openJournal opens the journal at path, creating it (plus <path>.csv and
// the <path>.ckpt/ directory) as needed, and replays any existing records.
func openJournal(path string, resume bool) (*Journal, []cellRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: journal: %w", err)
	}
	j := &Journal{f: f, path: path, dir: path + ".ckpt"}

	recs, good, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(recs) > 0 && !resume {
		f.Close()
		return nil, nil, fmt.Errorf("experiments: journal %s already holds %d cells; resume it or remove it", path, len(recs))
	}
	// Drop a torn trailing line so future appends produce a well-formed log.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("experiments: journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("experiments: journal: %w", err)
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("experiments: journal: %w", err)
	}
	csvPath := path + ".csv"
	writeHeader := true
	if st, err := os.Stat(csvPath); err == nil && st.Size() > 0 {
		writeHeader = false
	}
	j.csv, err = os.OpenFile(csvPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("experiments: journal: %w", err)
	}
	if writeHeader {
		fmt.Fprintln(j.csv, "kernel,iq,reuse,dist,strategy,nblt,cycles,commits,ipc,gated,energy_total,retried,status")
	}

	for _, rec := range recs {
		// The cell is durably recorded; its mid-run checkpoint is stale.
		os.Remove(j.ckptPath(rec.Spec))
	}
	return j, recs, nil
}

// replay decodes every complete record in f and returns them together with
// the byte offset just past the last good line. Records with a future schema
// version fail loudly (silently dropping cells would re-run and then
// double-append them); a torn or corrupt final line just ends the replay.
func replay(f *os.File) ([]cellRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("experiments: journal: %w", err)
	}
	var recs []cellRecord
	var good int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec cellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn/corrupt tail: everything before it stands
		}
		if rec.V != journalVersion {
			return nil, 0, fmt.Errorf("experiments: journal: record version %d, this build reads %d", rec.V, journalVersion)
		}
		good += int64(len(line)) + 1
		recs = append(recs, rec)
	}
	return recs, good, nil
}

// Close closes the journal's files. Checkpoints need no closing: each is
// written and renamed whole.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	if e := j.csv.Close(); err == nil {
		err = e
	}
	return err
}

// record appends the cell to the journal and its CSV mirror, fsyncs the
// journal, and removes the cell's now-stale checkpoint.
func (j *Journal) record(r RunResult) error {
	data, err := json.Marshal(recordOf(r))
	if err != nil {
		return fmt.Errorf("experiments: journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("experiments: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiments: journal: %w", err)
	}
	status := "ok"
	if r.Err != nil {
		status = "fail"
	}
	fmt.Fprintf(j.csv, "%s,%d,%v,%v,%d,%d,%d,%d,%g,%g,%g,%v,%s\n",
		r.Kernel, r.IQSize, r.Reuse, r.Distributed, r.Strategy, r.NBLTSize,
		r.Cycles, r.Commits, r.IPC, r.Gated, r.Power.Total(), r.Retried, status)
	j.csv.Sync()
	os.Remove(j.ckptPath(r.Spec))
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
// re-simulate, every newly completed cell is appended and fsynced, and
// long-running cells checkpoint every CheckpointEvery cycles so a killed
// sweep resumes mid-cell. With resume false the journal must be empty; with
// resume true existing records are replayed (a torn final line is tolerated
// and truncated away). Returns the journal and the number of cells
// recovered.
func (s *Suite) AttachJournal(path string, resume bool) (*Journal, int, error) {
	j, recs, err := openJournal(path, resume)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	for _, rec := range recs {
		s.results[rec.Spec] = rec.result()
	}
	s.journal = j
	s.mu.Unlock()
	return j, len(recs), nil
}
