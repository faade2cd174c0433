package pipeline

import (
	"fmt"
	"sync"

	"reuseiq/internal/altfe"
	"reuseiq/internal/bpred"
	"reuseiq/internal/chaos"
	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/mem"
	"reuseiq/internal/prog"
	"reuseiq/internal/rename"
	"reuseiq/internal/rob"
	"reuseiq/internal/telemetry"
)

// Counters are the pipeline-level activity counters consumed by the power
// model and the experiment harness (component-internal counters live on the
// components themselves).
type Counters struct {
	Cycles      uint64
	Commits     uint64
	GatedCycles uint64 // cycles with the front end gated (Code Reuse)

	Fetches      uint64 // instructions fetched (including wrong path)
	FetchCycles  uint64 // cycles the fetch stage was active (not gated/stalled)
	Decodes      uint64
	FrontRenames uint64 // instructions dispatched from the front end
	ReuseRenames uint64 // instances dispatched by the reuse pointer

	BranchesCommitted uint64
	TakenCommitted    uint64
	Mispredicts       uint64 // resolved mispredictions (recoveries)
	LoadsCommitted    uint64
	StoresCommitted   uint64
	ReusedCommitted   uint64 // committed instances that came from the reuse path
	LoopCacheSupplies uint64 // fetches served by the prior-art loop cache

	// WakeupBroadcasts counts result-tag broadcasts into the issue queue;
	// WakeupOccupancySum accumulates queue occupancy at each broadcast so
	// the power model can charge CAM energy proportional to live entries.
	WakeupBroadcasts    uint64
	WakeupOccupancySum  uint64
	IssueCycleScans     uint64 // occupancy examined by select logic, summed per cycle
	DispatchStallIQ     uint64
	DispatchStallROB    uint64
	DispatchStallLSQ    uint64
	DispatchStallRegs   uint64
	StoreCommitAccesses uint64 // data cache writes performed at commit
}

type fetched struct {
	pc         uint32
	in         isa.Inst
	isControl  bool
	predTaken  bool
	predTarget uint32
}

// Commit is the structured record of one committed instruction, handed to
// the OnCommit hook. It mirrors interp.Effect so the lockstep oracle can
// compare the two field by field.
type Commit struct {
	Cycle  uint64
	Seq    uint64
	PC     uint32
	Inst   isa.Inst
	Reused bool // supplied by the reuse pointer, not the front end

	// Halted is set for the committing HALT; no effect fields are valid.
	Halted bool

	// Destination register write.
	HasDest bool
	Dest    isa.Reg
	DestI   int32
	DestF   float64

	// Store effect (memory written at commit).
	IsStore   bool
	StoreAddr uint32
	StoreI    int32
	StoreF    float64

	// Load effect.
	IsLoad   bool
	LoadAddr uint32

	// Control-flow resolution (valid for control instructions).
	Taken  bool
	Target uint32
}

type execEntry struct {
	robSlot int
	seq     uint64
	done    uint64 // completion cycle
	valI    int32
	valF    float64
}

// stageScratch is the per-cycle working memory of writeback and issue.
type stageScratch struct {
	done []execEntry // completions this cycle

	// ready marks the select candidates by ROB slot, one bit each, and
	// iqSlot maps a marked ROB slot back to its issue queue slot.
	ready  []uint64
	iqSlot []int32
}

// fit sizes the select bitset and slot map for a ROB of robSize entries,
// reusing the buffers when they are large enough.
func (s *stageScratch) fit(robSize int) {
	words := (robSize + 63) / 64
	if cap(s.ready) < words {
		s.ready = make([]uint64, words)
	}
	s.ready = s.ready[:words]
	if cap(s.iqSlot) < robSize {
		s.iqSlot = make([]int32, robSize)
	}
	s.iqSlot = s.iqSlot[:robSize]
}

// Machine is one simulated processor instance bound to a program.
type Machine struct {
	//reuse:transient configuration; the snapshot wire format fingerprints it via ConfigHash and Resume rebuilds from it
	Cfg Config
	//reuse:transient the loaded program; fingerprinted via ProgramHash, its mutable memory restores through Mem's pair
	Prog *prog.Program

	Mem  *prog.Memory // architectural data memory (committed state)
	Hier *mem.Hierarchy
	BP   *bpred.Predictor
	RF   *rename.RegFile
	ROB  *rob.ROB
	LSQ  *lsq.LSQ
	IQ   *core.Queue
	Ctl  *core.Controller
	FUs  *fu.Pool
	LC   *altfe.LoopCache // nil unless a loop cache is configured

	C Counters

	cycle           uint64
	nextSeq         uint64
	fetchPC         uint32
	fetchStallUntil uint64
	fetchHalted     bool
	fetchQ          []fetched
	decodeLat       []fetched
	execQ           []execEntry
	//reuse:transient writeback and issue scratch; never live across a cycle boundary
	scratch    stageScratch
	halted     bool
	lastCommit uint64

	// Chaos is the fault injector, non-nil when Cfg.Chaos.Enabled. Its
	// counters record how many faults were actually injected.
	Chaos *chaos.Injector

	// OnCommit, when non-nil, observes every committed instruction in
	// program order (the lockstep oracle's hook). A returned error stops
	// the machine: Run returns it, and no further cycles execute.
	//reuse:nilguard
	//reuse:transient observer hook; the host re-attaches it after a restore
	OnCommit func(Commit) error

	// OnCycle, when non-nil, runs after every completed cycle (the
	// invariant checker's hook). A returned error stops the machine like
	// an OnCommit error.
	//reuse:nilguard
	//reuse:transient observer hook; the host re-attaches it after a restore
	OnCycle func() error

	// hookErr latches the first error returned by OnCommit or OnCycle.
	//reuse:transient hook plumbing; a machine that latched an error stops and is not snapshotted mid-failure
	hookErr error

	// Tel, when non-nil, receives structured telemetry (RIQ state
	// transitions, session audit, instruction lifecycles, chaos events).
	// Install with AttachTelemetry; nil costs one pointer check per tap.
	//reuse:nilguard
	//reuse:transient observation capture; AttachTelemetry re-installs the tracer after a restore
	Tel *telemetry.Tracer

	// telSeq is the exclusive per-instruction tap threshold, cached from
	// Tel's InstLimit: lifecycle taps (dispatch, issue, complete, commit)
	// fire only for seq < telSeq, and 0 (no tracer) disables them. The
	// per-instruction guard is a single scalar compare instead of a
	// pointer chase into the tracer — the taps sit on every stage of
	// every instruction, where the difference is measurable.
	//reuse:transient cached tap threshold, recomputed by AttachTelemetry
	telSeq uint64

	// OnSample, when non-nil, runs every SampleEvery cycles at the end of
	// Step, on the simulation goroutine — the periodic tap live observers
	// (internal/obs) publish from. Nil-guarded like OnCycle: one pointer
	// check per cycle when disabled. Install with AttachSampler.
	//reuse:nilguard
	//reuse:transient observer hook; AttachSampler re-installs it after a restore
	OnSample func()
	//reuse:transient sampling knob owned by the host observer, re-armed by AttachSampler
	SampleEvery uint64
	//reuse:transient sampling countdown, re-armed by AttachSampler
	sampleLeft uint64
}

// AttachSampler installs fn as the periodic sampler, firing every `every`
// cycles (default 4096 when zero). The callback runs on the simulation
// goroutine, so it may read any machine state; whatever it publishes to
// other goroutines must be an immutable copy.
func (m *Machine) AttachSampler(every uint64, fn func()) {
	if every == 0 {
		every = 4096
	}
	m.SampleEvery = every
	m.sampleLeft = every
	m.OnSample = fn
}

// AttachTelemetry connects a tracer to the machine and its reuse controller.
// Call before Run; call Tel.Finalize(m.Cycle()) after the run to close a
// session left open at HALT.
func (m *Machine) AttachTelemetry(t *telemetry.Tracer) {
	m.Tel = t
	m.telSeq = t.InstSeqCap()
	m.Ctl.Hook = t.CtlEvent
}

// New builds a machine for p under cfg.
func New(cfg Config, p *prog.Program) *Machine {
	cfg = cfg.normalized()
	m := &Machine{
		Cfg:  cfg,
		Prog: p,
		Mem:  p.Data.Clone(),
		Hier: mem.NewHierarchy(cfg.Mem),
		BP:   bpred.New(cfg.Bpred),
		RF:   rename.MustNew(cfg.IntPhysRegs, cfg.FPPhysRegs),
		ROB:  rob.New(cfg.ROBSize),
		LSQ:  lsq.New(cfg.LSQSize),
		FUs:  fu.NewPool(cfg.FU),
	}
	m.IQ = core.NewQueue(cfg.IQSize)
	m.Ctl = core.NewController(cfg.Reuse, m.IQ)
	m.Chaos = chaos.New(cfg.Chaos)
	if cfg.LoopCache != nil {
		m.LC = altfe.NewLoopCache(*cfg.LoopCache)
	}
	m.fetchPC = p.Entry
	m.RF.SetArchInt(isa.RegSP, int32(prog.StackTop))

	// Working buffers come from a shared pool so that sweep harnesses
	// building thousands of machines reuse them instead of regrowing; a
	// fresh set is pre-sized so the hot loop never reallocates.
	if w, _ := wsPool.Get().(*workspace); w != nil {
		m.fetchQ = w.fetchQ[:0]
		m.decodeLat = w.decodeLat[:0]
		m.execQ = w.execQ[:0]
		m.scratch = w.scratch
	} else {
		m.fetchQ = make([]fetched, 0, cfg.FetchQueueSize)
		m.decodeLat = make([]fetched, 0, cfg.DecodeWidth)
		m.execQ = make([]execEntry, 0, cfg.IQSize)
		m.scratch.done = make([]execEntry, 0, cfg.IQSize)
	}
	m.scratch.fit(cfg.ROBSize)
	return m
}

// workspace holds a machine's reusable scratch buffers between runs.
type workspace struct {
	fetchQ    []fetched
	decodeLat []fetched
	execQ     []execEntry
	scratch   stageScratch
}

var wsPool sync.Pool

// Release returns the machine's scratch buffers to the shared pool for reuse
// by future machines. Results (counters, architectural state, statistics)
// stay readable, but the machine must not be stepped afterwards.
func (m *Machine) Release() {
	wsPool.Put(&workspace{
		fetchQ:    m.fetchQ,
		decodeLat: m.decodeLat,
		execQ:     m.execQ,
		scratch:   m.scratch,
	})
	m.fetchQ, m.decodeLat, m.execQ = nil, nil, nil
	m.scratch = stageScratch{}
}

// Halted reports whether the program's HALT has committed.
func (m *Machine) Halted() bool { return m.halted }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// IPC returns committed instructions per cycle.
func (m *Machine) IPC() float64 {
	if m.C.Cycles == 0 {
		return 0
	}
	return float64(m.C.Commits) / float64(m.C.Cycles)
}

// GatedFraction returns the fraction of execution cycles with the pipeline
// front end gated (paper Figure 5).
func (m *Machine) GatedFraction() float64 {
	if m.C.Cycles == 0 {
		return 0
	}
	return float64(m.C.GatedCycles) / float64(m.C.Cycles)
}

// Step advances the machine by one cycle. Stage order is back to front so
// that a latch drained by a later stage can be refilled in the same cycle.
//
//reuse:hotpath
func (m *Machine) Step() {
	m.cycle++
	m.C.Cycles++
	if m.Tel != nil {
		m.Tel.BeginCycle(m.cycle)
	}
	if m.Ctl.GateActive() {
		m.C.GatedCycles++
		// The session audit log counts gated cycles at exactly this
		// point, so per-session totals reconcile with C.GatedCycles.
		if m.Tel != nil {
			m.Tel.GatedCycle()
		}
	}
	// Fault injection: a forced buffering revoke is a controller-level
	// event independent of any stage, so it fires at the cycle boundary.
	if m.Chaos.RollRevoke() && m.Ctl.ForceRevoke() {
		m.Chaos.CountRevoke()
		if m.Tel != nil {
			m.Tel.ChaosRevoke()
		}
	}
	m.commit()
	if m.halted || m.hookErr != nil {
		return
	}
	m.writeback()
	m.issue()
	m.dispatch()
	m.decode()
	m.fetch()
	if m.OnCycle != nil {
		if err := m.OnCycle(); err != nil {
			m.hookErr = err
		}
	}
	if m.OnSample != nil {
		if m.sampleLeft > 1 {
			m.sampleLeft--
		} else {
			m.sampleLeft = m.SampleEvery
			m.OnSample()
		}
	}
}

// Run executes until HALT commits, returning an error on cycle budget
// exhaustion or deadlock.
func (m *Machine) Run() error { return m.RunBreakable(0, nil) }

// StateSummary renders a one-line snapshot of the machine's queues, the
// reuse-capable issue queue (RIQ) state and the ROB head, for diagnostics.
func (m *Machine) StateSummary() string { return m.stateSummary() }

func (m *Machine) stateSummary() string {
	s := fmt.Sprintf("state=%v rob=%d/%d iq=%d/%d lsq=%d/%d fetchPC=0x%x",
		m.Ctl.State(), m.ROB.Len(), m.ROB.Size(), m.IQ.Len(), m.IQ.Size(),
		m.LSQ.Len(), m.LSQ.Size(), m.fetchPC)
	if h := m.ROB.Head(); h != nil {
		s += fmt.Sprintf(" head={seq=%d pc=0x%x %s done=%v}", h.Seq, h.PC, h.Inst.Disasm(h.PC), h.Done)
	}
	return s
}

// ArchInt returns the committed architectural value of integer register n.
func (m *Machine) ArchInt(n int) int32 { return m.RF.ArchInt(n) }

// ArchFP returns the committed architectural value of FP register n.
func (m *Machine) ArchFP(n int) float64 { return m.RF.ArchFP(n) }
