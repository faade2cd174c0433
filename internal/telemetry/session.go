package telemetry

import "reuseiq/internal/core"

// Session is one reuse-session audit record: the full lifetime of one loop
// capture, from the cycle Loop Buffering was entered to the cycle the
// controller returned to Normal (or the run ended). A session that was
// revoked before promotion has PromoteCycle == 0 and zero gated cycles.
type Session struct {
	ID         int
	Head, Tail uint32 // loop bounds (head = loop-head PC)
	StaticSize int    // static loop size in instructions

	StartCycle   uint64 // Loop Buffering entered
	PromoteCycle uint64 // Code Reuse entered; 0 if never promoted
	EndCycle     uint64 // back to Normal (or final cycle for open sessions)

	Iterations    int    // complete iterations buffered
	BufferedInsts uint64 // instructions buffered (classified at dispatch)
	ReusedInsts   uint64 // instances supplied by the reuse pointer
	GatedCycles   uint64 // cycles the front end spent gated in this session

	// EndReason says how the session ended: a buffering revoke reason,
	// core.ReasonReuseExit for a normal reuse exit, or core.ReasonNone for
	// a session still open when the run ended.
	EndReason core.RevokeReason
}

// Promoted reports whether the session reached Code Reuse.
func (s Session) Promoted() bool { return s.PromoteCycle != 0 }

// sessionLog tracks the currently open session and the closed history.
type sessionLog struct {
	log    []Session
	cur    Session
	active bool
	// baseBuffered is the controller's cumulative buffered-instruction
	// count when the session opened; the delta at close is the session's
	// BufferedInsts.
	baseBuffered uint64
}

func (l *sessionLog) open(cycle uint64, e core.CtlEvent) {
	l.cur = Session{
		ID:         len(l.log),
		Head:       e.Head,
		Tail:       e.Tail,
		StaticSize: e.Size,
		StartCycle: cycle,
	}
	l.baseBuffered = e.BufferedInsts
	l.active = true
}

func (l *sessionLog) promote(cycle uint64) {
	if l.active {
		l.cur.PromoteCycle = cycle
	}
}

func (l *sessionLog) iteration(e core.CtlEvent) {
	if l.active {
		l.cur.Iterations++
		// Keep the running count current so a session still open at run
		// end (closed by finalize, which sees no controller event) reports
		// the instructions buffered up to its last complete iteration.
		l.cur.BufferedInsts = e.BufferedInsts - l.baseBuffered
	}
}

func (l *sessionLog) gatedCycle() {
	if l.active {
		l.cur.GatedCycles++
	}
}

func (l *sessionLog) reuseSupplied(k int) {
	if l.active {
		l.cur.ReusedInsts += uint64(k)
	}
}

func (l *sessionLog) close(cycle uint64, e core.CtlEvent, reason core.RevokeReason) *Session {
	if !l.active {
		return nil
	}
	l.cur.EndCycle = cycle
	l.cur.EndReason = reason
	l.cur.BufferedInsts = e.BufferedInsts - l.baseBuffered
	l.active = false
	l.log = append(l.log, l.cur)
	return &l.log[len(l.log)-1]
}

func (l *sessionLog) finalize(cycle uint64) *Session {
	if !l.active {
		return nil
	}
	l.cur.EndCycle = cycle
	l.cur.EndReason = core.ReasonNone
	l.active = false
	l.log = append(l.log, l.cur)
	return &l.log[len(l.log)-1]
}
