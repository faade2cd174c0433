// Package flightrec is the simulator's time-travel flight recorder: a
// bounded ring of periodic machine checkpoints (internal/snapshot images)
// plus a cycle-indexed ring of telemetry events, recorded while a machine
// runs and replayed afterwards with deterministic seek to any covered cycle.
//
// The recorder is always attachable: checkpointing is amortized off the hot
// path by piggybacking on pipeline.RunBreakable's break points (Poll/Break),
// events arrive through the telemetry tracer's sink chain, and a detached
// machine pays nothing — no pipeline hook is introduced by this package.
// Seeking restores the newest checkpoint at or below the target cycle and
// silently replays forward cycle-accurately, each replay validated by the
// lockstep invariant checker, so a seek costs O(checkpoint interval) and the
// reached state is byte-identical to the original run's state at that cycle
// (PR 6's bit-identical-restore guarantee extended transitively).
//
// With a directory configured the recorder mirrors itself to disk — a
// manifest naming the workload, atomic checkpoint image files, and rotated
// JSONL event segments — so a crashed or anomalous run leaves a post-mortem
// artifact that cmd/reusedbg can open cold.
package flightrec

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"reuseiq/internal/pipeline"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
)

// Defaults. The interval is the O(seek) bound: larger rings cost memory,
// larger intervals cost replay time. 1<<16 cycles keeps checkpoint capture
// (a full state export, ~tens of microseconds) well under 10% of simulation
// time at the core's steady-state speed while bounding any seek's replay to
// at most one interval of cycles.
const (
	DefaultInterval = 1 << 16
	DefaultDepth    = 8
	DefaultEvents   = 1 << 16
)

// ManifestName is the manifest file inside a recorder directory.
const ManifestName = "manifest.json"

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the cycle distance between checkpoints (default
	// DefaultInterval). Checkpoints land on the first break point at or
	// after each due cycle, so the actual spacing is Interval rounded up
	// to the break granularity.
	Interval uint64
	// Depth bounds the checkpoint ring (default DefaultDepth). The oldest
	// checkpoint is evicted when a new one would exceed it; the seekable
	// range starts at the oldest retained checkpoint.
	Depth int
	// Events bounds the retained telemetry event ring (default
	// DefaultEvents). Older events are dropped, counted in Status.
	Events int
	// Dir, when non-empty, persists the recording (manifest, checkpoint
	// images, event segments) so a crashed run leaves a debuggable
	// artifact. Empty records in memory only.
	Dir string
	// Manifest describes the workload for the persisted artifact so that
	// cmd/reusedbg can rebuild the config and program cold. Ignored when
	// Dir is empty (an in-memory Archive carries the live config).
	Manifest Manifest
}

func (c Config) normalized() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.Events <= 0 {
		c.Events = DefaultEvents
	}
	return c
}

// Checkpoint is one ring entry: a full machine state at a cycle boundary.
type Checkpoint struct {
	Cycle uint64
	State *pipeline.MachineState
}

// Status is the recorder's observable state, served by the obs layer's
// /debug/timetravel endpoint. All fields are safe to read while the
// simulation runs.
type Status struct {
	Interval           uint64 `json:"interval"`
	Depth              int    `json:"depth"`
	Checkpoints        int    `json:"checkpoints"`
	CheckpointsTaken   uint64 `json:"checkpoints_taken"`
	CheckpointsEvicted uint64 `json:"checkpoints_evicted"`
	// SeekableFrom/To are the cycles of the oldest and newest retained
	// checkpoints: any cycle in between seeks with at most one interval of
	// replay (later cycles are reachable by replaying past the newest
	// checkpoint).
	SeekableFrom   uint64 `json:"seekable_from"`
	SeekableTo     uint64 `json:"seekable_to"`
	EventsRetained int    `json:"events_retained"`
	EventsTotal    uint64 `json:"events_total"`
	EventsDropped  uint64 `json:"events_dropped"`
	Dir            string `json:"dir,omitempty"`
}

// Recorder records one machine. Create with Attach; feed it by passing
// Break (or calling Poll) from a RunBreakable break point; close with
// Finish. Methods other than Status must run on the simulation goroutine.
type Recorder struct {
	m   *pipeline.Machine
	cfg Config

	// mu guards the checkpoint ring, which Status reads from other
	// goroutines. Checkpointing is rare (every Interval cycles), so the
	// lock never contends on the hot path.
	mu      sync.Mutex
	ckpts   []Checkpoint
	taken   uint64
	evicted uint64

	// Event ring: written on the simulation goroutine via the telemetry
	// sink chain, read only after the run (Archive) — except the counter,
	// which Status reads concurrently. The backing slice starts small and
	// doubles up to cfg.Events on demand: until the first wrap writes are
	// purely sequential (evNext == evTotal), so growth never reorders
	// retained events, and a quiet run never pays the full ring.
	events  []telemetry.Event
	evNext  int
	evTotal atomic.Uint64
	scratch []byte // reused JSONL encode buffer (one event line)

	lastCkpt uint64

	// Persistence (nil/zero when Dir is empty). Event segments are written
	// on the simulation goroutine (cheap: one AppendEvent into a reused
	// buffer per event); checkpoint images go through a single background
	// worker so the multi-hundred-KiB encode+write+rename never stalls the
	// simulation. Channel order serializes each image's write before any
	// eviction that removes it. perr latches the first write error (under
	// errMu — both goroutines latch); recording continues in memory and
	// Finish surfaces it after draining the worker.
	evFile     *os.File
	evBuf      *bufio.Writer
	evInSeg    int
	segs       []string
	jobs       chan persistJob
	workerDone chan struct{}
	errMu      sync.Mutex
	perr       error

	finished bool
}

// persistJob is one unit of background image I/O: write ck to path, or
// (ck == nil) remove an evicted image at path.
type persistJob struct {
	ck   Checkpoint
	path string
}

// Attach builds a recorder for m and splices it into the machine's telemetry
// sink chain (attaching a tracer if the machine has none — the tracer does
// not perturb the run). It takes an immediate checkpoint, so the
// seekable range starts at the machine's current cycle.
func Attach(m *pipeline.Machine, cfg Config) (*Recorder, error) {
	cfg = cfg.normalized()
	r := &Recorder{
		m:      m,
		cfg:    cfg,
		ckpts:  make([]Checkpoint, 0, cfg.Depth),
		events: make([]telemetry.Event, min(1024, cfg.Events)),
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
	r.checkpoint()
	return r, nil
}

// Interval returns the normalized checkpoint interval (a natural break-point
// granularity for RunBreakable).
func (r *Recorder) Interval() uint64 { return r.cfg.Interval }

// Poll takes a checkpoint if one is due. Call it from a RunBreakable break
// point (or any cycle boundary); between due cycles it is two loads and a
// compare.
func (r *Recorder) Poll() {
	if r.m.Cycle() >= r.lastCkpt+r.cfg.Interval {
		r.checkpoint()
	}
}

// Break adapts Poll to RunBreakable's break-callback signature (it never
// asks to stop).
func (r *Recorder) Break() bool {
	r.Poll()
	return false
}

// captureEvent appends one telemetry event to the ring (and the current
// on-disk segment when persisting). Runs on the simulation goroutine.
func (r *Recorder) captureEvent(e telemetry.Event) {
	if r.evNext == len(r.events) {
		if n := len(r.events); n < r.cfg.Events {
			r.events = append(r.events, make([]telemetry.Event, min(n, r.cfg.Events-n))...)
		} else {
			r.evNext = 0
		}
	}
	r.events[r.evNext] = e
	r.evNext++
	if r.evNext == len(r.events) && len(r.events) == r.cfg.Events {
		r.evNext = 0
	}
	r.evTotal.Add(1)
	if r.evBuf != nil && r.evInSeg < r.cfg.Events {
		r.evInSeg++
		r.scratch = append(telemetry.AppendEvent(r.scratch[:0], e), '\n')
		if _, err := r.evBuf.Write(r.scratch); err != nil {
			r.latchErr(err)
		}
	}
}

// checkpoint captures the machine state, persists it when configured, and
// rotates the ring.
func (r *Recorder) checkpoint() {
	st := r.m.Snapshot()
	ck := Checkpoint{Cycle: st.Cycle, State: st}
	if r.jobs != nil {
		j := persistJob{ck: ck, path: r.ckptPath(ck.Cycle)}
		if r.taken == 0 {
			// The attach-time image is the durability floor: written inline,
			// so a recording directory abandoned by a crash always holds at
			// least one loadable checkpoint. Later images go through the
			// worker; a crash can lose at most the queued tail.
			r.persist(j, nil)
		} else {
			r.jobs <- j
		}
		r.rotateSegment(ck.Cycle)
	}
	r.mu.Lock()
	r.ckpts = append(r.ckpts, ck)
	r.taken++
	var evict []Checkpoint
	if len(r.ckpts) > r.cfg.Depth {
		n := len(r.ckpts) - r.cfg.Depth
		evict = append(evict, r.ckpts[:n]...)
		r.ckpts = append(r.ckpts[:0], r.ckpts[n:]...)
		r.evicted += uint64(n)
	}
	r.mu.Unlock()
	for _, old := range evict {
		if r.jobs != nil {
			r.jobs <- persistJob{path: r.ckptPath(old.Cycle)}
		}
	}
	r.pruneSegments()
	r.lastCkpt = st.Cycle
}

// Events returns the retained events, oldest first. Call after the run (or
// from the simulation goroutine); it is not synchronized against capture.
func (r *Recorder) Events() []telemetry.Event {
	n := r.evTotal.Load()
	if n > uint64(len(r.events)) {
		n = uint64(len(r.events))
	}
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

// Checkpoints returns a copy of the current ring, oldest first.
func (r *Recorder) Checkpoints() []Checkpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Checkpoint(nil), r.ckpts...)
}

// Status returns the recorder's observable state. Safe to call from any
// goroutine while the simulation runs.
func (r *Recorder) Status() Status {
	st := Status{
		Interval: r.cfg.Interval,
		Depth:    r.cfg.Depth,
		Dir:      r.cfg.Dir,
	}
	r.mu.Lock()
	st.Checkpoints = len(r.ckpts)
	st.CheckpointsTaken = r.taken
	st.CheckpointsEvicted = r.evicted
	if len(r.ckpts) > 0 {
		st.SeekableFrom = r.ckpts[0].Cycle
		st.SeekableTo = r.ckpts[len(r.ckpts)-1].Cycle
	}
	r.mu.Unlock()
	total := r.evTotal.Load()
	st.EventsTotal = total
	retained := total
	if retained > uint64(len(r.events)) {
		retained = uint64(len(r.events))
	}
	st.EventsRetained = int(retained)
	st.EventsDropped = total - retained
	return st
}

// RegisterMetrics registers the recorder's counters with r (they appear in
// /metrics alongside the machine's own when the CLI publishes samples).
func (rec *Recorder) RegisterMetrics(r *telemetry.Registry) {
	r.Counter("flightrec.checkpoints_taken", func() uint64 { return rec.Status().CheckpointsTaken })
	r.Counter("flightrec.checkpoints_evicted", func() uint64 { return rec.Status().CheckpointsEvicted })
	r.Counter("flightrec.events_total", rec.evTotal.Load)
}

// Finish takes a final checkpoint at the machine's current cycle (so the end
// state seeks without replay), flushes and closes the persisted artifact,
// and returns the first persistence error encountered. Call once, after the
// run stops (normally or not).
func (r *Recorder) Finish() error {
	if r.finished {
		return r.firstErr()
	}
	r.finished = true
	if r.m.Cycle() > r.lastCkpt {
		r.checkpoint()
	}
	if r.evBuf != nil {
		if err := r.evBuf.Flush(); err != nil {
			r.latchErr(err)
		}
		if err := r.evFile.Close(); err != nil {
			r.latchErr(err)
		}
		r.evFile, r.evBuf = nil, nil
	}
	if r.jobs != nil {
		// Drain the image worker before the final manifest write, so a
		// manifest naming FinalCycle never precedes its images on disk.
		close(r.jobs)
		<-r.workerDone
		r.jobs = nil
	}
	if r.cfg.Dir != "" {
		man := r.manifest()
		man.FinalCycle = r.m.Cycle()
		man.Halted = r.m.Halted()
		if err := writeManifest(r.cfg.Dir, man); err != nil {
			r.latchErr(err)
		}
	}
	return r.firstErr()
}

func (r *Recorder) firstErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.perr
}

// Archive freezes the recording into a seekable in-memory archive. Call
// after the run; the checkpoint states are shared (immutable), not copied.
func (r *Recorder) Archive() *Archive {
	a := &Archive{
		Man:    r.manifest(),
		Cfg:    r.m.Cfg,
		Prog:   r.m.Prog,
		Ckpts:  r.Checkpoints(),
		Events: r.Events(),
		End:    r.m.Cycle(),
		Halted: r.m.Halted(),
	}
	a.Man.FinalCycle = a.End
	a.Man.Halted = a.Halted
	return a
}

// manifest assembles the persisted manifest from the caller-supplied
// workload identity plus the recorder's own parameters.
func (r *Recorder) manifest() Manifest {
	man := r.cfg.Manifest
	man.Interval = r.cfg.Interval
	man.Depth = r.cfg.Depth
	man.ConfigHash = fmt.Sprintf("%016x", snapshot.ConfigHash(r.m.Cfg))
	man.ProgramHash = fmt.Sprintf("%016x", snapshot.ProgramHash(r.m.Prog))
	return man
}

// ---- persistence ----

func (r *Recorder) ckptPath(cycle uint64) string {
	return filepath.Join(r.cfg.Dir, fmt.Sprintf("ckpt-%020d.img", cycle))
}

func (r *Recorder) segPath(cycle uint64) string {
	return filepath.Join(r.cfg.Dir, fmt.Sprintf("events-%020d.jsonl", cycle))
}

func (r *Recorder) initDir() error {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	if err := writeManifest(r.cfg.Dir, r.manifest()); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	if err := r.openSegment(r.m.Cycle()); err != nil {
		return err
	}
	// Buffered a little past the ring depth so a slow disk backpressures
	// the simulation instead of queueing unbounded state copies.
	r.jobs = make(chan persistJob, r.cfg.Depth+2)
	r.workerDone = make(chan struct{})
	go r.persistWorker()
	return nil
}

// openSegment starts a new event segment file.
func (r *Recorder) openSegment(cycle uint64) error {
	path := r.segPath(cycle)
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

// persistWorker is the single background goroutine that owns all checkpoint
// image I/O. The machine state in each job is an immutable deep copy and
// m.Cfg/m.Prog never change after construction, so encoding off-thread is
// safe; a reused buffer keeps each image to one write syscall plus the
// atomic rename. Jobs with a nil state remove an evicted image — channel
// FIFO order guarantees the write always lands first.
func (r *Recorder) persistWorker() {
	defer close(r.workerDone)
	var buf []byte
	for j := range r.jobs {
		buf = r.persist(j, buf)
	}
}

// persist executes one image job (write, or remove when the state is nil),
// reusing and returning buf. Errors latch rather than propagate — the
// recorder keeps the in-memory ring usable even when the disk fails.
func (r *Recorder) persist(j persistJob, buf []byte) []byte {
	if j.ck.State == nil {
		_ = os.Remove(j.path)
		return buf
	}
	w := bytes.NewBuffer(buf[:0])
	err := snapshot.Write(w, j.ck.State, r.m.Cfg, r.m.Prog)
	buf = w.Bytes()
	if err == nil {
		tmp := j.path + ".tmp"
		if err = os.WriteFile(tmp, buf, 0o644); err == nil {
			err = os.Rename(tmp, j.path)
		}
	}
	if err != nil {
		r.latchErr(err)
	}
	return buf
}

// latchErr records the first persistence error (any goroutine).
func (r *Recorder) latchErr(err error) {
	r.errMu.Lock()
	if r.perr == nil {
		r.perr = err
	}
	r.errMu.Unlock()
}

// rotateSegment closes the current event segment at a checkpoint boundary
// and opens the next (skip if the current segment is still empty — the
// initial checkpoint). Runs on the simulation goroutine, which owns evBuf.
func (r *Recorder) rotateSegment(cycle uint64) {
	if r.evBuf == nil || r.evInSeg == 0 {
		return
	}
	if err := r.evBuf.Flush(); err != nil {
		r.latchErr(err)
	}
	if err := r.evFile.Close(); err != nil {
		r.latchErr(err)
	}
	r.evFile, r.evBuf = nil, nil
	if err := r.openSegment(cycle); err != nil {
		r.latchErr(err)
	}
}

// pruneSegments deletes event segments that can no longer back any retained
// checkpoint's replay window (everything older than the segment preceding
// the oldest checkpoint). Bounds the artifact: at most Depth+1 segments.
func (r *Recorder) pruneSegments() {
	if r.cfg.Dir == "" {
		return
	}
	max := r.cfg.Depth + 1
	for len(r.segs) > max {
		_ = os.Remove(r.segs[0])
		r.segs = append(r.segs[:0], r.segs[1:]...)
	}
}
