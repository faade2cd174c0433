// Package runstore is the simulator's run ledger: a durable, append-only,
// schema-versioned warehouse of complete run records, one JSON line per run,
// fsynced at append and tolerant of a torn final line on reopen (the same
// durability discipline as the experiment journal in internal/experiments).
//
// Where the telemetry registry and the obs service expose a run's counters
// live and then throw them away at process exit, the ledger persists every
// run's full metrics snapshot keyed by the configuration and program
// fingerprints from internal/snapshot. That turns the paper's headline
// deltas — power and IPC of the reuse scheme versus a baseline — into
// durable cross-run queries: any two runs (or run sets) can be diffed
// counter by counter, and fingerprint-identical repeats become a correctness
// oracle, because every modeled counter must be bit-identical between them
// (see sentinel.go).
//
// The ledger is off by default and zero-cost when absent: recording happens
// once per finished run, outside the simulation hot path, and a nil *Ledger
// disables every call site.
package runstore

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"reuseiq/internal/cell"
)

// SchemaVersion guards the record schema. Replay fails loudly on records
// from a future schema (silently dropping runs would skew cross-run
// statistics); bump it on any incompatible field change.
const SchemaVersion = 1

// Record kinds.
const (
	// KindSim is a standalone reusesim run.
	KindSim = "sim"
	// KindCell is one cell of an experiments.Suite sweep.
	KindCell = "cell"
)

// Counter is one counter in a record's metrics snapshot.
type Counter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Gauge is one gauge in a record's metrics snapshot.
type Gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistBucket is one cumulative histogram bucket (LE 0 with Inf set marks the
// +Inf overflow bucket).
type HistBucket struct {
	LE    uint64 `json:"le,omitempty"`
	Inf   bool   `json:"inf,omitempty"`
	Count uint64 `json:"count"`
}

// Hist is one histogram in a record's metrics snapshot.
type Hist struct {
	Name    string       `json:"name"`
	Buckets []HistBucket `json:"buckets"`
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Max     uint64       `json:"max"`
}

// Metrics is the complete typed metrics surface of one run — the ledger's
// copy of a telemetry.MetricsSnapshot, with stable JSON names.
type Metrics struct {
	Counters []Counter `json:"counters"`
	Gauges   []Gauge   `json:"gauges,omitempty"`
	Hists    []Hist    `json:"hists,omitempty"`
}

// Counter returns the named counter's value and whether it is present.
func (m *Metrics) Counter(name string) (uint64, bool) {
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Host is the run's host-side provenance: where and how long it ran. Host
// fields are never part of the deterministic modeled-state contract — the
// sentinel applies robust outlier statistics to them, not bit-equality.
type Host struct {
	Hostname  string `json:"hostname,omitempty"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go"`
	WallNS    int64  `json:"wall_ns"`
}

// Wall returns the run's wall time.
func (h Host) Wall() time.Duration { return time.Duration(h.WallNS) }

// Record is one ledger line: the full provenance-stamped outcome of one run.
type Record struct {
	V    int    `json:"v"`
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Start is when the run began, RFC 3339 with nanoseconds.
	Start time.Time `json:"start"`

	// Workload identity: the cell that ran. Kernel names the assembly
	// file instead for an ad-hoc reusesim -asm run.
	cell.Spec
	// Strategy mirrors Spec.Strategy for perfbench, which compares it with an
	// int. Not encoded; Open, Load and FromMachine fill it.
	Strategy int `json:"-"`

	// Provenance: the value-hash fingerprints from internal/snapshot, in
	// their "%016x:%016x" string form (strings, not u64s, so JavaScript
	// consumers of /runs never round them), plus every mode flag that can
	// change the run's observable surface.
	Fingerprint string `json:"fingerprint"`
	FlightRec   bool   `json:"flightrec,omitempty"`
	Verified    bool   `json:"verified,omitempty"`

	// Headline results.
	Cycles  uint64  `json:"cycles"`
	Commits uint64  `json:"commits"`
	IPC     float64 `json:"ipc"`
	Gated   float64 `json:"gated"`
	Err     string  `json:"err,omitempty"`
	Retried bool    `json:"retried,omitempty"`

	// Metrics is the complete telemetry registry snapshot at run end.
	Metrics Metrics `json:"metrics"`
	// Energy is the power model's per-component energy attribution
	// (normalized units), keyed by component name, plus "total".
	Energy map[string]float64 `json:"energy,omitempty"`

	Host Host `json:"host"`
}

// ConfigHash returns the config half of the record's fingerprint string.
func (r *Record) ConfigHash() string {
	cfg, _, _ := strings.Cut(r.Fingerprint, ":")
	return cfg
}

// newID returns a fresh 16-hex-digit run id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id would
		// collide, so degrade to the only entropy left.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Ledger is an open run ledger: an append-only JSONL file plus the in-memory
// view of every record in it. All methods are safe for concurrent use; a nil
// *Ledger is a valid "recording disabled" value for Append.
type Ledger struct {
	mu   sync.Mutex
	f    *os.File
	path string
	recs []Record
	byID map[string]int
}

// Open opens (creating if needed) the ledger at path and replays its
// records. A torn final line — the residue of a crash mid-append — is
// tolerated and truncated away so subsequent appends produce a well-formed
// log again. A record with a future schema version fails the open.
func Open(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	l := &Ledger{f: f, path: path, byID: map[string]int{}}
	good, err := l.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("runstore: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return l, nil
}

// replay decodes every complete record and returns the byte offset just past
// the last good line. Mirrors the experiment journal: a torn or corrupt
// final line ends the replay, a future-version record fails it.
func (l *Ledger) replay() (int64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("runstore: %w", err)
	}
	var good int64
	sc := bufio.NewScanner(l.f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: everything before it stands
		}
		if rec.V != SchemaVersion {
			return 0, fmt.Errorf("runstore: %s: record version %d, this build reads %d", l.path, rec.V, SchemaVersion)
		}
		good += int64(len(line)) + 1
		rec.Strategy = int(rec.Spec.Strategy)
		l.byID[rec.ID] = len(l.recs)
		l.recs = append(l.recs, rec)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("runstore: %s: %w", l.path, err)
	}
	return good, nil
}

// Load reads the ledger at path read-only: records replay with the same
// torn-tail tolerance and version check as Open, but the file is never
// created, truncated or held open — the right primitive for query CLIs
// reading beside a live writer.
func Load(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	l := &Ledger{f: f, path: path, byID: map[string]int{}}
	if _, err := l.replay(); err != nil {
		return nil, err
	}
	return l.recs, nil
}

// Path returns the ledger file's path.
func (l *Ledger) Path() string { return l.path }

// Close closes the ledger file. The in-memory view stays readable.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Append stamps rec (schema version, and a fresh id unless the caller set
// one), appends it to the ledger and fsyncs. Appending to a nil or closed
// ledger is a no-op, so call sites need no recording-enabled checks.
func (l *Ledger) Append(rec *Record) error {
	if l == nil {
		return nil
	}
	rec.V = SchemaVersion
	if rec.ID == "" {
		rec.ID = newID()
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if _, err := l.f.Write(append(data, '\n')); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
	}
	l.byID[rec.ID] = len(l.recs)
	l.recs = append(l.recs, *rec)
	return nil
}

// Len returns the number of records.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns a copy of every record, in append (chronological) order.
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.recs...)
}

// Get returns the record with the given id, or the unique record whose id
// has the given prefix (at least 4 hex digits).
func (l *Ledger) Get(id string) (Record, bool) {
	if l == nil {
		return Record{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.byID[id]; ok {
		return l.recs[i], true
	}
	if len(id) >= 4 {
		found, n := -1, 0
		for i := range l.recs {
			if strings.HasPrefix(l.recs[i].ID, id) {
				found, n = i, n+1
			}
		}
		if n == 1 {
			return l.recs[found], true
		}
	}
	return Record{}, false
}

// Filter selects ledger records. Zero-valued fields match everything.
type Filter struct {
	Kind        string // KindSim or KindCell
	Kernel      string
	Fingerprint string // full "cfg:prog" form, or a config-hash prefix
	IQSize      int
	Reuse       *bool
	// Last keeps only the most recent N matches (0 = all).
	Last int
}

// Match reports whether rec passes the filter.
func (f Filter) Match(rec *Record) bool {
	switch {
	case f.Kind != "" && rec.Kind != f.Kind,
		f.Kernel != "" && rec.Kernel != f.Kernel,
		f.IQSize != 0 && rec.IQSize != f.IQSize,
		f.Reuse != nil && rec.Reuse != *f.Reuse:
		return false
	}
	if f.Fingerprint != "" {
		if strings.Contains(f.Fingerprint, ":") {
			if rec.Fingerprint != f.Fingerprint {
				return false
			}
		} else if !strings.HasPrefix(rec.Fingerprint, f.Fingerprint) {
			return false
		}
	}
	return true
}

// Select returns the records in recs matching f, in input order. The result
// is always a fresh slice (record values are copied), so callers holding a
// snapshot — like the /runs endpoint — can filter without aliasing.
func (f Filter) Select(recs []Record) []Record {
	var out []Record
	for i := range recs {
		if f.Match(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	if f.Last > 0 && len(out) > f.Last {
		out = out[len(out)-f.Last:]
	}
	return out
}

// Select returns the ledger records matching f, in append order.
func (l *Ledger) Select(f Filter) []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return f.Select(l.recs)
}
