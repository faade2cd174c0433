// Package flightrec is the simulator's time-travel flight recorder: a
// cycle-indexed ring of telemetry events recorded while a machine runs, plus
// a manifest that rebuilds the machine's config and program, so any cycle of
// the run can be reached afterwards by deterministic replay.
//
// The recorder is always attachable: events arrive through the telemetry
// tracer's sink chain, and a detached machine pays nothing — no pipeline hook
// is introduced by this package. A seek forward steps the live machine; a
// seek backward re-runs a fresh machine from cycle 0. Every replay runs
// under the lockstep invariant checker, and the simulator is deterministic
// (chaos PRNG stream included), so the reached state equals the original
// run's state at that cycle. Every paper cell is short — the largest,
// btrix at IQ 32, runs in well under a second — so a replay from cycle 0
// costs less than typing the next debugger command.
//
// With a directory configured the recorder mirrors itself to disk — a
// manifest naming the workload and rotated JSONL event segments — so a
// crashed or anomalous run leaves a post-mortem artifact that cmd/reusedbg
// can open cold.
package flightrec

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"reuseiq/internal/pipeline"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
)

// DefaultEvents bounds the in-memory event ring and the length of one
// on-disk event segment.
const DefaultEvents = 1 << 16

// ManifestName is the manifest file inside a recorder directory.
const ManifestName = "manifest.json"

// Config parameterizes a Recorder.
type Config struct {
	// Dir, when non-empty, persists the recording (manifest and event
	// segments) so a crashed run leaves a debuggable artifact. Empty
	// records in memory only.
	Dir string
	// Manifest describes the workload for the persisted artifact so that
	// cmd/reusedbg can rebuild the config and program cold. Ignored when
	// Dir is empty (an in-memory Archive carries the live config).
	Manifest Manifest
}

// Recorder records one machine. Create with Attach; close with Finish. All
// methods must run on the simulation goroutine.
type Recorder struct {
	m   *pipeline.Machine
	cfg Config

	// Event ring, written through the telemetry sink chain. The backing
	// slice starts small and doubles up to DefaultEvents on demand: until
	// the first wrap writes are purely sequential (evNext == evTotal), so
	// growth never reorders retained events, and a quiet run never pays
	// the full ring.
	events  []telemetry.Event
	evNext  int
	evTotal uint64
	scratch []byte // reused JSONL encode buffer (one event line)

	// Persistence (nil/zero when Dir is empty). Segments rotate every
	// DefaultEvents lines and only the newest two are kept, so the disk
	// always holds at least the ring's worth of the newest events. perr
	// latches the first write error; recording continues in memory and
	// Finish surfaces it.
	evFile  *os.File
	evBuf   *bufio.Writer
	evInSeg int
	segs    []string
	perr    error

	finished bool
}

// Attach builds a recorder for m and splices it into the machine's telemetry
// sink chain (attaching a tracer if the machine has none — the tracer does
// not perturb the run).
func Attach(m *pipeline.Machine, cfg Config) (*Recorder, error) {
	r := &Recorder{
		m:      m,
		cfg:    cfg,
		events: make([]telemetry.Event, 1024),
	}
	if cfg.Dir != "" {
		if err := r.initDir(); err != nil {
			return nil, err
		}
	}
	tel := m.Tel
	if tel == nil {
		// The recorder owns the event stream; the tracer's own ring is
		// redundant with the recorder's, so keep it minimal.
		tel = telemetry.New(telemetry.Config{RingSize: 64})
		m.AttachTelemetry(tel)
	}
	prev := tel.Sink
	tel.Sink = func(e telemetry.Event) {
		if prev != nil {
			prev(e)
		}
		r.captureEvent(e)
	}
	return r, nil
}

// captureEvent appends one telemetry event to the ring (and the current
// on-disk segment when persisting).
func (r *Recorder) captureEvent(e telemetry.Event) {
	if r.evNext == len(r.events) {
		if n := len(r.events); n < DefaultEvents {
			r.events = append(r.events, make([]telemetry.Event, min(n, DefaultEvents-n))...)
		} else {
			r.evNext = 0
		}
	}
	r.events[r.evNext] = e
	r.evNext++
	if r.evNext == len(r.events) && len(r.events) == DefaultEvents {
		r.evNext = 0
	}
	r.evTotal++
	if r.evBuf != nil && r.evInSeg == DefaultEvents {
		r.rotateSegment()
	}
	if r.evBuf == nil {
		return
	}
	r.evInSeg++
	r.scratch = append(telemetry.AppendEvent(r.scratch[:0], e), '\n')
	if _, err := r.evBuf.Write(r.scratch); err != nil {
		r.latchErr(err)
	}
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []telemetry.Event {
	n := min(r.evTotal, uint64(len(r.events)))
	out := make([]telemetry.Event, 0, n)
	start := r.evNext - int(n)
	if start < 0 {
		start += len(r.events)
	}
	for i := 0; i < int(n); i++ {
		out = append(out, r.events[(start+i)%len(r.events)])
	}
	return out
}

// EventsTotal returns the number of events recorded, including any the ring
// has since dropped.
func (r *Recorder) EventsTotal() uint64 { return r.evTotal }

// RegisterMetrics registers the recorder's counters with r (they appear in
// /metrics alongside the machine's own when the CLI publishes samples).
func (rec *Recorder) RegisterMetrics(r *telemetry.Registry) {
	r.Counter("flightrec.events_total", rec.EventsTotal)
}

// Finish flushes and closes the persisted artifact, stamps the manifest
// with the final cycle, and returns the first persistence error
// encountered. Call once, after the run stops (normally or not).
func (r *Recorder) Finish() error {
	if r.finished {
		return r.perr
	}
	r.finished = true
	if r.evBuf != nil {
		r.closeSegment()
	}
	if r.cfg.Dir != "" {
		man := r.manifest()
		man.FinalCycle = r.m.Cycle()
		man.Halted = r.m.Halted()
		if err := writeManifest(r.cfg.Dir, man); err != nil {
			r.latchErr(err)
		}
	}
	return r.perr
}

// Archive freezes the recording into a seekable in-memory archive. Call
// after the run.
func (r *Recorder) Archive() *Archive {
	a := &Archive{
		Man:    r.manifest(),
		Cfg:    r.m.Cfg,
		Prog:   r.m.Prog,
		Events: r.Events(),
		End:    r.m.Cycle(),
		Halted: r.m.Halted(),
	}
	a.Man.FinalCycle = a.End
	a.Man.Halted = a.Halted
	return a
}

// manifest assembles the persisted manifest from the caller-supplied
// workload identity plus the fingerprints of the machine's config and
// program.
func (r *Recorder) manifest() Manifest {
	man := r.cfg.Manifest
	man.ConfigHash = fmt.Sprintf("%016x", snapshot.ConfigHash(r.m.Cfg))
	man.ProgramHash = fmt.Sprintf("%016x", snapshot.ProgramHash(r.m.Prog))
	return man
}

// ---- persistence ----

func (r *Recorder) initDir() error {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	if err := writeManifest(r.cfg.Dir, r.manifest()); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	return r.openSegment()
}

// openSegment starts a new event segment file, named by the ordinal of its
// first event so lexical order is recording order.
func (r *Recorder) openSegment() error {
	path := filepath.Join(r.cfg.Dir, fmt.Sprintf("events-%020d.jsonl", r.evTotal))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	r.evFile = f
	r.evBuf = bufio.NewWriterSize(f, 1<<16)
	r.evInSeg = 0
	r.segs = append(r.segs, path)
	return nil
}

// closeSegment flushes and closes the current event segment.
func (r *Recorder) closeSegment() {
	if err := r.evBuf.Flush(); err != nil {
		r.latchErr(err)
	}
	if err := r.evFile.Close(); err != nil {
		r.latchErr(err)
	}
	r.evFile, r.evBuf = nil, nil
}

// rotateSegment closes the full current segment, opens the next, and
// deletes all but the newest two.
func (r *Recorder) rotateSegment() {
	r.closeSegment()
	if err := r.openSegment(); err != nil {
		r.latchErr(err)
		return
	}
	for len(r.segs) > 2 {
		_ = os.Remove(r.segs[0])
		r.segs = r.segs[1:]
	}
}

// latchErr records the first persistence error.
func (r *Recorder) latchErr(err error) {
	if r.perr == nil {
		r.perr = err
	}
}
