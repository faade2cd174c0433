// Package telemetry is the simulator's structured observability layer: a
// ring-buffered event tracer for the reuse-capable issue queue's state
// machine, a reuse-session audit log, a unified metrics registry, and
// exporters (Chrome/Perfetto trace-event JSON, JSONL event dumps, session
// tables).
//
// The contract with the hot path is strict zero cost when disabled: the
// pipeline holds a *Tracer that is nil by default, every tap is guarded by a
// single nil check (exactly like the existing OnCommit/OnCycle hooks), and
// nothing in this package is reachable from a disabled machine. When enabled,
// the tracer itself stays allocation-free in steady state: events are
// fixed-size structs written into a preallocated ring, sessions append only
// on state transitions (rare by construction — a transition means the loop
// capture machinery changed mode), and histograms are fixed bucket arrays.
// Only the optional JSONL streaming sink allocates, because it encodes.
package telemetry

import "reuseiq/internal/core"

// Kind enumerates event types. The zero value is invalid so that a cleared
// ring slot can never be mistaken for an event.
type Kind uint8

const (
	// EvBuffer: the controller entered Loop Buffering (PC = loop head,
	// A = loop tail, B = static size).
	EvBuffer Kind = iota + 1
	// EvPromote: Buffering -> Code Reuse; the fetch gate closes (PC = head).
	EvPromote
	// EvRevoke: Buffering -> Normal (PC = head, A = core.RevokeReason).
	EvRevoke
	// EvReuseExit: Code Reuse -> Normal; the fetch gate opens (PC = head).
	EvReuseExit
	// EvIteration: one loop iteration finished buffering (PC = head,
	// A = dynamic iteration size).
	EvIteration
	// EvNBLTHit: a detection was suppressed by the NBLT (PC = loop tail).
	EvNBLTHit
	// EvNBLTInsert: a loop registered as non-bufferable (PC = loop tail).
	EvNBLTInsert
	// EvMispredict: a resolved branch misprediction squashed the pipeline
	// (PC = branch, A = redirect target, B = branch seq).
	EvMispredict
	// EvChaosFlip: fault injection inverted a branch prediction (PC).
	EvChaosFlip
	// EvChaosStall: fault injection stalled fetch (A = stall cycles).
	EvChaosStall
	// EvChaosJitter: fault injection inflated a result latency
	// (A = extra cycles, B = seq).
	EvChaosJitter
	// EvChaosRevoke: fault injection forced a buffering revoke.
	EvChaosRevoke
	// EvDispatch: an instruction entered the window (PC, A = seq,
	// B = 1 when supplied by the reuse pointer). Only the first
	// Config.InstLimit sequence numbers are recorded.
	EvDispatch
	// EvIssue: instruction A issued (PC, subject to InstLimit).
	EvIssue
	// EvComplete: instruction A wrote back (PC, subject to InstLimit).
	EvComplete
	// EvCommit: instruction A committed (PC, subject to InstLimit).
	EvCommit
)

var kindNames = [...]string{
	"", "buffer", "promote", "revoke", "reuse-exit", "iteration",
	"nblt-hit", "nblt-insert", "mispredict", "chaos-flip", "chaos-stall",
	"chaos-jitter", "chaos-revoke", "dispatch", "issue", "complete", "commit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one telemetry event. Fixed size, no pointers: emitting one is a
// ring-slot store, never an allocation.
type Event struct {
	Cycle uint64
	Kind  Kind
	PC    uint32
	A, B  uint64 // kind-specific payload (see the Kind constants)
}

// Config parameterizes a Tracer.
type Config struct {
	// RingSize bounds the retained event history (default 1<<16). Older
	// events are dropped, counted in Tracer.Dropped().
	RingSize int
	// InstLimit caps per-instruction lifecycle events (dispatch, issue,
	// complete, commit) to the first InstLimit sequence numbers, keeping
	// long traces dominated by the rare state-machine events rather than
	// the per-cycle instruction stream. Default 512; negative disables
	// instruction events entirely.
	InstLimit int
}

// Tracer records telemetry for one machine. Create with New, attach with
// pipeline.(*Machine).AttachTelemetry.
type Tracer struct {
	// Sink, when non-nil, receives every event synchronously as it is
	// emitted (before ring overwrite can drop it). Used for JSONL
	// streaming; the sink may allocate.
	//reuse:nilguard
	Sink func(Event)

	cycle     uint64
	ring      []Event
	next      int    // ring insertion point
	total     uint64 // events ever emitted
	instLimit uint64

	sessions sessionLog

	// Histograms (see registry.go). SessionCycles observes each closed
	// session's wall-clock length; IssueToCommit observes per-instruction
	// issue-to-commit latency.
	SessionCycles Histogram
	IssueToCommit Histogram
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize == 0 {
		cfg.RingSize = 1 << 16
	}
	if cfg.InstLimit == 0 {
		cfg.InstLimit = 512
	}
	t := &Tracer{ring: make([]Event, cfg.RingSize)}
	if cfg.InstLimit > 0 {
		t.instLimit = uint64(cfg.InstLimit)
	}
	return t
}

// InstSeqCap returns the exclusive sequence-number bound below which
// per-instruction lifecycle taps fire (instLimit is inclusive). The pipeline
// caches it so the per-instruction guard is one compare against a machine
// field rather than a load through the tracer pointer.
func (t *Tracer) InstSeqCap() uint64 {
	if t.instLimit == ^uint64(0) {
		return t.instLimit
	}
	return t.instLimit + 1
}

// BeginCycle stamps the cycle used by subsequent events. The pipeline calls
// it once per Step.
func (t *Tracer) BeginCycle(cycle uint64) { t.cycle = cycle }

// Emit records one event at the current cycle.
func (t *Tracer) Emit(k Kind, pc uint32, a, b uint64) {
	e := Event{Cycle: t.cycle, Kind: k, PC: pc, A: a, B: b}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	if t.Sink != nil {
		t.Sink(e)
	}
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 { return t.total }

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	n := t.total
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	out := make([]Event, 0, n)
	start := t.next - int(n)
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < int(n); i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// CtlEvent is the controller tap: install with ctl.Hook = tracer.CtlEvent
// (pipeline.AttachTelemetry does this). It translates controller events into
// trace events and drives the session audit log.
func (t *Tracer) CtlEvent(e core.CtlEvent) {
	switch e.Kind {
	case core.CtlBuffer:
		t.Emit(EvBuffer, e.Head, uint64(e.Tail), uint64(e.Size))
		t.sessions.open(t.cycle, e)
	case core.CtlPromote:
		t.Emit(EvPromote, e.Head, uint64(e.Tail), 0)
		t.sessions.promote(t.cycle)
	case core.CtlRevoke:
		t.Emit(EvRevoke, e.Head, uint64(e.Reason), 0)
		t.closeSession(e, e.Reason)
	case core.CtlReuseExit:
		t.Emit(EvReuseExit, e.Head, 0, 0)
		t.closeSession(e, core.ReasonReuseExit)
	case core.CtlIteration:
		t.Emit(EvIteration, e.Head, uint64(e.Size), 0)
		t.sessions.iteration(e)
	case core.CtlNBLTHit:
		t.Emit(EvNBLTHit, e.Tail, 0, 0)
	case core.CtlNBLTInsert:
		t.Emit(EvNBLTInsert, e.Tail, 0, 0)
	}
}

func (t *Tracer) closeSession(e core.CtlEvent, reason core.RevokeReason) {
	if s := t.sessions.close(t.cycle, e, reason); s != nil {
		t.SessionCycles.Observe(s.EndCycle - s.StartCycle)
	}
}

// GatedCycle attributes one front-end-gated cycle to the open session. The
// pipeline calls it exactly where it increments its global GatedCycles
// counter, so per-session totals reconcile with the aggregate by
// construction.
func (t *Tracer) GatedCycle() { t.sessions.gatedCycle() }

// ReuseSupplied attributes k reuse-pointer-supplied instances to the open
// session.
func (t *Tracer) ReuseSupplied(k int) { t.sessions.reuseSupplied(k) }

// Mispredict records a resolved misprediction squash.
func (t *Tracer) Mispredict(pc uint32, target uint32, seq uint64) {
	t.Emit(EvMispredict, pc, uint64(target), seq)
}

// ChaosFlip, ChaosStall, ChaosJitter and ChaosRevoke record fault
// injections.
func (t *Tracer) ChaosFlip(pc uint32)               { t.Emit(EvChaosFlip, pc, 0, 0) }
func (t *Tracer) ChaosStall(cycles int)             { t.Emit(EvChaosStall, 0, uint64(cycles), 0) }
func (t *Tracer) ChaosJitter(extra int, seq uint64) { t.Emit(EvChaosJitter, 0, uint64(extra), seq) }
func (t *Tracer) ChaosRevoke()                      { t.Emit(EvChaosRevoke, 0, 0, 0) }

// InstDispatch, InstIssue, InstComplete and InstCommit record per-instruction
// lifecycle events for the first InstLimit sequence numbers.
func (t *Tracer) InstDispatch(seq uint64, pc uint32, reused bool) {
	if seq > t.instLimit {
		return
	}
	var r uint64
	if reused {
		r = 1
	}
	t.Emit(EvDispatch, pc, seq, r)
}

func (t *Tracer) InstIssue(seq uint64, pc uint32) {
	if seq > t.instLimit {
		return
	}
	t.Emit(EvIssue, pc, seq, 0)
}

func (t *Tracer) InstComplete(seq uint64, pc uint32) {
	if seq > t.instLimit {
		return
	}
	t.Emit(EvComplete, pc, seq, 0)
}

func (t *Tracer) InstCommit(seq uint64, pc uint32) {
	if seq > t.instLimit {
		return
	}
	t.Emit(EvCommit, pc, seq, 0)
}

// CommitLatency observes one committed instruction's issue-to-commit latency.
func (t *Tracer) CommitLatency(cycles uint64) { t.IssueToCommit.Observe(cycles) }

// Finalize closes a session left open at the end of the run (loop still
// buffering or reusing when HALT committed). Call once, after the machine
// stops; cycle is the final cycle number.
func (t *Tracer) Finalize(cycle uint64) {
	if s := t.sessions.finalize(cycle); s != nil {
		t.SessionCycles.Observe(s.EndCycle - s.StartCycle)
	}
}

// Sessions returns the audit log: one record per captured loop, in capture
// order. Call Finalize first so a still-open session is included.
func (t *Tracer) Sessions() []Session { return t.sessions.log }
