package core

import "reuseiq/internal/isa"

// State is the issue queue's operating mode (paper Figure 2; the fourth
// encoding of the 2-bit register is unused).
type State uint8

const (
	// Normal: conventional out-of-order issue queue behaviour.
	Normal State = iota
	// Buffering: a capturable loop was detected; dispatched instructions
	// are classified and kept in the queue after issue.
	Buffering
	// Reuse: the front-end is gated and the queue supplies instructions
	// itself through the reuse pointer.
	Reuse
)

func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Buffering:
		return "loop-buffering"
	case Reuse:
		return "code-reuse"
	}
	return "?"
}

// RevokeReason identifies why a buffering in progress was abandoned (or,
// for ReasonReuseExit, why an active Code Reuse ended).
type RevokeReason uint8

const (
	ReasonNone      RevokeReason = iota
	ReasonInner                  // inner loop detected (paper Figure 4)
	ReasonExit                   // execution left the loop during buffering
	ReasonFull                   // queue filled before the loop end was met
	ReasonRecovery               // branch misprediction during buffering
	ReasonForced                 // external fault injection (chaos testing)
	ReasonReuseExit              // Code Reuse ended by misprediction recovery
)

var reasonNames = [...]string{
	"none", "inner-loop", "loop-exit", "queue-full", "recovery", "forced", "reuse-exit",
}

func (r RevokeReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "?"
}

// CtlEventKind enumerates the controller's observable events.
type CtlEventKind uint8

const (
	// CtlBuffer: Normal -> Buffering (a capturable loop was detected).
	CtlBuffer CtlEventKind = iota
	// CtlPromote: Buffering -> Reuse (front end gated).
	CtlPromote
	// CtlRevoke: Buffering -> Normal; Reason says why.
	CtlRevoke
	// CtlReuseExit: Reuse -> Normal (recovery ended the reuse session).
	CtlReuseExit
	// CtlIteration: one complete loop iteration finished buffering.
	CtlIteration
	// CtlNBLTHit: a detection was suppressed by the non-bufferable loop table.
	CtlNBLTHit
	// CtlNBLTInsert: a loop was registered as non-bufferable.
	CtlNBLTInsert
)

// CtlEvent is one observable controller event, delivered to the Hook. The
// struct is passed by value and contains no pointers, so delivery never
// allocates.
type CtlEvent struct {
	Kind CtlEventKind
	// Head and Tail are the current loop's bounds (valid for every kind but
	// NBLT events, whose Tail is the address looked up or inserted).
	Head, Tail uint32
	// Size is the loop's static size in instructions (CtlBuffer) or the
	// iteration's dynamic size (CtlIteration).
	Size   int
	Reason RevokeReason // CtlRevoke and CtlReuseExit only
	// BufferedInsts is the controller's cumulative buffered-instruction
	// count at event time, letting an observer compute per-session deltas.
	BufferedInsts uint64
}

// Strategy selects the buffering termination policy (paper §2.2.1).
type Strategy uint8

const (
	// StrategyMulti buffers additional loop iterations while the predicted
	// next iteration fits in the free entries (the paper's choice: it
	// unrolls the loop into the queue for more ILP).
	StrategyMulti Strategy = iota
	// StrategySingle buffers exactly one iteration and promotes
	// immediately (simpler, gates the front end sooner).
	StrategySingle
)

// Config parameterizes the reuse mechanism.
type Config struct {
	// Enabled turns the whole mechanism on. When false the controller is
	// inert and the queue behaves conventionally (the baseline).
	Enabled bool
	// IQSize bounds the static loop size considered capturable.
	IQSize int
	// NBLTSize is the number of non-bufferable loop table entries
	// (paper: 8; 0 disables the table).
	NBLTSize int
	Strategy Strategy
}

// Stats counts controller events.
type Stats struct {
	Detections         uint64 // capturable loops seen at dispatch
	NBLTFiltered       uint64 // detections suppressed by the NBLT
	Bufferings         uint64 // Loop Buffering entered
	IterationsBuffered uint64
	BufferedInsts      uint64
	Promotions         uint64 // Code Reuse entered
	ReuseRenames       uint64 // instances supplied by the reuse pointer
	ReuseExits         uint64
	Revokes            uint64
	RevokesInner       uint64 // inner loop detected (paper Figure 4)
	RevokesExit        uint64 // execution left the loop during buffering
	RevokesFull        uint64 // queue filled before the loop end was met
	RevokesRecovery    uint64 // branch misprediction during buffering
	RevokesForced      uint64 // external fault injection (chaos testing)
}

// Controller implements the loop detector and state machine. The pipeline
// drives it with dispatch-order events; detection therefore happens when the
// loop-ending instruction reaches rename, one stage after the paper's
// decode-stage detector, which shifts timing by a cycle without changing
// behaviour (dispatch is in order).
type Controller struct {
	//reuse:transient configuration; fixed at construction and fingerprinted by the snapshot layer's ConfigHash
	cfg Config
	//reuse:transient back-reference to the managed queue, wired at construction; the queue restores through its own pair
	q    *Queue
	nblt *NBLT

	state    State
	loopHead uint32
	loopTail uint32
	// callDepth tracks procedure-call nesting inside the loop being
	// buffered, so that callee instructions (outside [head,tail]) are
	// buffered rather than treated as a loop exit (paper §2.2.2).
	callDepth     int
	iterCount     int // instructions buffered in the current iteration
	lastIterSize  int // size of the last complete iteration (the counter)
	firstIterDone bool
	reuseOrd      int    // reuse pointer, as an ordinal over classified entries
	wraps         uint64 // reuse-pointer wrap-arounds (see Wraps)

	//reuse:transient scratch reused by ReusableEntries; never live across a cycle boundary
	reusable []int // scratch for ReusableEntries

	// Hook, when non-nil, observes state transitions, buffered iterations
	// and NBLT activity (the telemetry tracer's tap). Calls are synchronous
	// and must not re-enter the controller.
	//reuse:nilguard
	//reuse:transient observer hook; the host re-attaches it after a restore
	Hook func(CtlEvent)

	S Stats
}

// NewController creates a controller managing q.
func NewController(cfg Config, q *Queue) *Controller {
	if cfg.IQSize == 0 {
		cfg.IQSize = q.Size()
	}
	return &Controller{cfg: cfg, q: q, nblt: NewNBLT(cfg.NBLTSize)}
}

// State returns the current operating mode.
func (c *Controller) State() State { return c.state }

// GateActive reports whether the pipeline front-end is gated.
func (c *Controller) GateActive() bool { return c.state == Reuse }

// NBLT exposes the table for statistics.
func (c *Controller) NBLT() *NBLT { return c.nblt }

// LoopBounds returns the current loop's head and tail addresses (valid
// during Buffering and Reuse).
func (c *Controller) LoopBounds() (head, tail uint32) { return c.loopHead, c.loopTail }

// DispatchInfo tells the pipeline how to dispatch one front-end instruction.
type DispatchInfo struct {
	// Classify: set the entry's classification bit and record its LRL
	// information and static prediction.
	Classify bool
	// Promote: the queue switched to Code Reuse after this instruction;
	// the pipeline must gate the front end and flush fetched-but-not-
	// dispatched instructions (they are re-supplied by the reuse pointer).
	Promote bool
}

// OnDispatch processes one instruction leaving rename on the front-end path,
// with the front end's dynamic prediction for control instructions.
func (c *Controller) OnDispatch(pc uint32, in isa.Inst, predTaken bool, predTarget uint32) DispatchInfo {
	if !c.cfg.Enabled {
		return DispatchInfo{}
	}
	switch c.state {
	case Normal:
		c.maybeDetect(pc, in, predTaken)
		return DispatchInfo{}
	case Reuse:
		// The front end is gated; nothing should arrive here.
		return DispatchInfo{}
	case Buffering:
		// Handled below: the buffering path is the rest of this function.
	}

	// Buffering state.
	inLoop := pc >= c.loopHead && pc <= c.loopTail
	if c.callDepth == 0 && !inLoop {
		// Execution exited the loop during buffering.
		c.revoke(ReasonExit, true)
		c.maybeDetect(pc, in, predTaken)
		return DispatchInfo{}
	}
	if c.callDepth == 0 && pc != c.loopTail && c.isLoopBranch(pc, in, predTaken) {
		// An inner loop ends here: the loop being buffered is an outer
		// loop and cannot be captured (paper Figure 4).
		c.revoke(ReasonInner, true)
		c.maybeDetect(pc, in, predTaken)
		return DispatchInfo{}
	}

	// Buffer this instruction.
	c.iterCount++
	c.S.BufferedInsts++
	switch in.Op.Info().Class {
	case isa.ClassCall:
		c.callDepth++
	case isa.ClassReturn:
		if c.callDepth > 0 {
			c.callDepth--
		}
	}
	info := DispatchInfo{Classify: true}
	if pc == c.loopTail && c.callDepth == 0 {
		// End of one buffered iteration.
		c.S.IterationsBuffered++
		c.lastIterSize = c.iterCount
		c.iterCount = 0
		c.firstIterDone = true
		if c.Hook != nil {
			c.Hook(CtlEvent{Kind: CtlIteration, Head: c.loopHead, Tail: c.loopTail,
				Size: c.lastIterSize, BufferedInsts: c.S.BufferedInsts})
		}
		if !predTaken {
			// The loop is predicted to exit; the out-of-range check
			// will revoke on the next dispatch.
			return info
		}
		// OnDispatch runs before the pipeline inserts this loop-ending
		// instruction into the queue, so one free slot is already spoken
		// for when comparing against the next iteration's predicted size.
		promote := c.cfg.Strategy == StrategySingle || c.q.Free()-1 < c.lastIterSize
		if promote {
			c.promote()
			info.Promote = true
		}
	}
	return info
}

// ForceRevoke aborts a buffering in progress, as if the loop had turned out
// to be non-capturable. It exists for fault injection (chaos testing): the
// revoke machinery is exercised on demand without waiting for a workload to
// trigger it naturally. The loop is not registered in the NBLT — the fault
// is transient, not a property of the loop. It reports whether a buffering
// was actually revoked.
func (c *Controller) ForceRevoke() bool {
	if c.state != Buffering {
		return false
	}
	c.revoke(ReasonForced, false)
	return true
}

// ReuseOrd returns the reuse pointer as an ordinal over classified entries
// (meaningful only during Reuse; exposed for invariant checking).
func (c *Controller) ReuseOrd() int { return c.reuseOrd }

// OnIQFull is called when dispatch stalls because the queue is full. During
// buffering this means the loop (possibly including callee code) cannot be
// captured: revoke and register it as non-bufferable (paper §2.2.2).
func (c *Controller) OnIQFull() {
	if c.state == Buffering {
		c.revoke(ReasonFull, true)
	}
}

// OnRecovery is called at the start of branch-misprediction recovery,
// before the pipeline squashes the queue by sequence number. A buffering in
// progress is revoked; Code Reuse is exited (paper §2.5).
func (c *Controller) OnRecovery() {
	switch c.state {
	case Normal:
		// Nothing buffered and nothing to exit.
	case Buffering:
		c.revoke(ReasonRecovery, false)
	case Reuse:
		c.q.Revoke()
		c.state = Normal
		c.S.ReuseExits++
		if c.Hook != nil {
			c.Hook(CtlEvent{Kind: CtlReuseExit, Head: c.loopHead, Tail: c.loopTail,
				Reason: ReasonReuseExit, BufferedInsts: c.S.BufferedInsts})
		}
	}
}

// ReusableEntries returns up to max queue slots starting at the reuse
// pointer whose issue state bits are set, stopping at the first unissued
// buffered entry (the paper's first-m-of-n check). The scan also stops at
// the end of the buffer: the pointer resets to the first buffered
// instruction only after the last one has been reused (paper §2.3), so a
// supply group never spans the wrap. Valid only during Reuse. The returned
// slice is reused across calls.
func (c *Controller) ReusableEntries(max int) []int {
	if c.state != Reuse {
		return nil
	}
	class := c.q.ClassifiedSlots()
	n := len(class)
	if n == 0 {
		return nil
	}
	out := c.reusable[:0]
	for i := 0; i < max && c.reuseOrd+i < n; i++ {
		slot := int(class[c.reuseOrd+i])
		if !c.q.Entry(slot).Issued {
			break
		}
		out = append(out, slot)
	}
	c.reusable = out
	return out
}

// ConsumeReused advances the reuse pointer by k re-renamed entries. When the
// pointer passes the last buffered instruction it wraps back to the first
// (paper §2.3).
func (c *Controller) ConsumeReused(k int) {
	n := c.q.ClassifiedCount()
	if n == 0 || k == 0 {
		return
	}
	c.wraps += uint64((c.reuseOrd + k) / n)
	c.reuseOrd = (c.reuseOrd + k) % n
	c.S.ReuseRenames += uint64(k)
}

// Wraps counts reuse-pointer wrap-arounds — completed Code Reuse loop
// iterations. ReuseOrd alone cannot expose them: a small loop can wrap
// without the ordinal decreasing when several instances are consumed in one
// cycle. Monotonic within a run, and carried in ControllerState (snapshot
// wire format v2) so a restored controller continues the count.
func (c *Controller) Wraps() uint64 { return c.wraps }

// maybeDetect runs the loop detector on one dispatched instruction in
// Normal state.
func (c *Controller) maybeDetect(pc uint32, in isa.Inst, predTaken bool) {
	if !c.isLoopBranch(pc, in, predTaken) {
		return
	}
	head, _ := in.StaticTarget(pc)
	size := int(pc-head)/4 + 1
	if size > c.cfg.IQSize {
		return
	}
	c.S.Detections++
	if c.nblt.Contains(pc) {
		c.S.NBLTFiltered++
		if c.Hook != nil {
			c.Hook(CtlEvent{Kind: CtlNBLTHit, Head: head, Tail: pc, Size: size})
		}
		return
	}
	c.state = Buffering
	c.loopHead, c.loopTail = head, pc
	c.callDepth = 0
	c.iterCount = 0
	c.lastIterSize = size
	c.firstIterDone = false
	c.S.Bufferings++
	if c.Hook != nil {
		c.Hook(CtlEvent{Kind: CtlBuffer, Head: head, Tail: pc, Size: size,
			BufferedInsts: c.S.BufferedInsts})
	}
}

// isLoopBranch reports whether the instruction at pc is a backward
// conditional branch predicted taken, or a backward direct jump — the
// loop-ending patterns the detector checks for (paper §2.1).
func (c *Controller) isLoopBranch(pc uint32, in isa.Inst, predTaken bool) bool {
	switch in.Op.Info().Class {
	case isa.ClassBranch:
		return predTaken && in.BranchTarget(pc) <= pc
	case isa.ClassJump:
		return in.Target <= pc
	}
	return false
}

func (c *Controller) promote() {
	c.state = Reuse
	c.reuseOrd = 0
	c.callDepth = 0
	c.S.Promotions++
	if c.Hook != nil {
		c.Hook(CtlEvent{Kind: CtlPromote, Head: c.loopHead, Tail: c.loopTail,
			BufferedInsts: c.S.BufferedInsts})
	}
}

func (c *Controller) revoke(reason RevokeReason, registerNBLT bool) {
	if registerNBLT {
		c.nblt.Insert(c.loopTail)
		if c.Hook != nil {
			c.Hook(CtlEvent{Kind: CtlNBLTInsert, Head: c.loopHead, Tail: c.loopTail})
		}
	}
	c.q.Revoke()
	c.state = Normal
	c.S.Revokes++
	switch reason {
	case ReasonInner:
		c.S.RevokesInner++
	case ReasonExit:
		c.S.RevokesExit++
	case ReasonFull:
		c.S.RevokesFull++
	case ReasonRecovery:
		c.S.RevokesRecovery++
	case ReasonForced:
		c.S.RevokesForced++
	case ReasonNone, ReasonReuseExit:
		// Never passed to revoke: ReasonNone is the zero value and
		// ReasonReuseExit is emitted directly by OnRecovery when an active
		// Code Reuse ends (no buffering is being abandoned there).
	}
	if c.Hook != nil {
		c.Hook(CtlEvent{Kind: CtlRevoke, Head: c.loopHead, Tail: c.loopTail,
			Reason: reason, BufferedInsts: c.S.BufferedInsts})
	}
}
