package flightrec

import (
	"fmt"
	"strings"

	"reuseiq/internal/core"
	"reuseiq/internal/telemetry"
)

// Causal explanation: the why command walks the run's event timeline
// backward from a cycle and reconstructs the chain of events that produced
// the machine's condition there — why the fetch gate is closed, why a
// buffering attempt was revoked, why the pipeline squashed. The chain is
// assembled from the controller's own event vocabulary (buffer, promote,
// revoke, reuse-exit) plus the incident kinds that trigger transitions
// (mispredicts, chaos injections, NBLT activity).

// timelineAt is the event-derived controller context at a cycle: the
// current RIQ episode and the most recent incidents, gathered in one
// forward pass over the (cycle-ordered) events.
type timelineAt struct {
	state      core.State
	stateSince uint64 // cycle the current state began (0 = recording start)
	head       uint32 // loop head of the current episode, if any
	iters      int    // iterations buffered in the current/last episode
	sessionEv  *telemetry.Event

	incident *telemetry.Event // last transition/incident event at or before the cycle
	// Most recent occurrences by kind, for chain links.
	lastMispredict *telemetry.Event
	lastChaosFlip  *telemetry.Event
	lastChaosStall *telemetry.Event
	lastRevoke     *telemetry.Event
	lastNBLTInsert *telemetry.Event
}

// incidentKind reports whether k can anchor an explanation.
func incidentKind(k telemetry.Kind) bool {
	switch k {
	case telemetry.EvBuffer, telemetry.EvPromote, telemetry.EvRevoke,
		telemetry.EvReuseExit, telemetry.EvMispredict, telemetry.EvChaosFlip,
		telemetry.EvChaosStall, telemetry.EvChaosJitter, telemetry.EvChaosRevoke,
		telemetry.EvNBLTHit, telemetry.EvNBLTInsert:
		return true
	default:
		// Per-instruction lifecycle events and iteration ticks are volume,
		// not incidents.
		return false
	}
}

func scanTimeline(a *Archive, cycle uint64) timelineAt {
	var t timelineAt
	t.state = core.Normal
	for i := range a.Events {
		e := &a.Events[i]
		if e.Cycle > cycle {
			break
		}
		switch e.Kind {
		case telemetry.EvBuffer:
			t.state, t.stateSince, t.head, t.iters, t.sessionEv = core.Buffering, e.Cycle, e.PC, 0, e
		case telemetry.EvIteration:
			t.iters++
		case telemetry.EvPromote:
			t.state, t.stateSince, t.head = core.Reuse, e.Cycle, e.PC
		case telemetry.EvRevoke:
			t.state, t.stateSince = core.Normal, e.Cycle
			t.lastRevoke = e
		case telemetry.EvReuseExit:
			t.state, t.stateSince = core.Normal, e.Cycle
		case telemetry.EvMispredict:
			t.lastMispredict = e
		case telemetry.EvChaosFlip:
			t.lastChaosFlip = e
		case telemetry.EvChaosStall:
			t.lastChaosStall = e
		case telemetry.EvNBLTInsert:
			t.lastNBLTInsert = e
		default:
			// Remaining kinds (lifecycle, jitter, NBLT hits) don't move the
			// timeline state; they only anchor incidents, handled below.
		}
		if incidentKind(e.Kind) {
			t.incident = e
		}
	}
	return t
}

// Explain reconstructs the causal chain for the machine's condition at a
// cycle. It is pure text over the archive's events — no replay needed — so
// it answers instantly for any cycle.
func Explain(a *Archive, cycle uint64) string {
	var b strings.Builder
	t := scanTimeline(a, cycle)

	// Context line: what mode the RIQ is in and since when.
	switch t.state {
	case core.Reuse:
		fmt.Fprintf(&b, "cycle %d: RIQ in %s — fetch gate CLOSED since cycle %d (loop 0x%x)\n",
			cycle, t.state, t.stateSince, t.head)
	case core.Buffering:
		fmt.Fprintf(&b, "cycle %d: RIQ in %s since cycle %d (loop 0x%x, %d iterations so far)\n",
			cycle, t.state, t.stateSince, t.head, t.iters)
	default:
		fmt.Fprintf(&b, "cycle %d: RIQ in %s (fetch gate open)\n", cycle, t.state)
	}

	if t.incident == nil {
		b.WriteString("  no recorded events at or before this cycle (a quiet span)\n")
		return b.String()
	}
	explainEvent(&b, a, t, t.incident, "  ")
	return b.String()
}

// explainEvent writes one "because" line for e and recurses into its cause.
func explainEvent(b *strings.Builder, a *Archive, t timelineAt, e *telemetry.Event, indent string) {
	next := indent + "  "
	switch e.Kind {
	case telemetry.EvBuffer:
		fmt.Fprintf(b, "%scycle %d: loop 0x%x..0x%x (size %d) detected; Loop Buffering entered\n",
			indent, e.Cycle, e.PC, e.A, e.B)
	case telemetry.EvIteration:
		fmt.Fprintf(b, "%scycle %d: buffered one iteration of 0x%x (%d insts)\n", indent, e.Cycle, e.PC, e.A)
	case telemetry.EvPromote:
		fmt.Fprintf(b, "%scycle %d: loop 0x%x promoted to Code Reuse — fetch gate closed\n", indent, e.Cycle, e.PC)
		if s := findBefore(a, e.Cycle, telemetry.EvBuffer, e.PC); s != nil {
			fmt.Fprintf(b, "%sbecause:\n", indent)
			explainEvent(b, a, t, s, next)
			fmt.Fprintf(b, "%s(%d iterations buffered between cycles %d and %d)\n",
				next, countBetween(a, s.Cycle, e.Cycle, telemetry.EvIteration), s.Cycle, e.Cycle)
		}
	case telemetry.EvReuseExit:
		fmt.Fprintf(b, "%scycle %d: Code Reuse of loop 0x%x ended — fetch gate reopened\n", indent, e.Cycle, e.PC)
		if p := findBefore(a, e.Cycle, telemetry.EvPromote, e.PC); p != nil {
			fmt.Fprintf(b, "%s(gated for %d cycles)\n", indent, e.Cycle-p.Cycle)
			fmt.Fprintf(b, "%sbecause:\n", indent)
			explainEvent(b, a, t, p, next)
		}
	case telemetry.EvRevoke:
		reason := core.RevokeReason(e.A)
		fmt.Fprintf(b, "%scycle %d: buffering of loop 0x%x REVOKED (%s)\n", indent, e.Cycle, e.PC, reason)
		if s := findBefore(a, e.Cycle, telemetry.EvBuffer, e.PC); s != nil {
			fmt.Fprintf(b, "%sbecause:\n", indent)
			explainEvent(b, a, t, s, next)
		}
		if reason == core.ReasonRecovery && t.lastMispredict != nil && t.lastMispredict.Cycle <= e.Cycle {
			fmt.Fprintf(b, "%striggered by:\n", indent)
			explainEvent(b, a, t, t.lastMispredict, next)
		}
		if reason == core.ReasonForced {
			fmt.Fprintf(b, "%striggered by: fault injection (chaos-revoke)\n", indent)
		}
		if t.lastNBLTInsert != nil && t.lastNBLTInsert.Cycle == e.Cycle {
			fmt.Fprintf(b, "%sfollow-up: loop tail 0x%x inserted into the NBLT — future detections suppressed\n",
				indent, t.lastNBLTInsert.PC)
		}
	case telemetry.EvMispredict:
		fmt.Fprintf(b, "%scycle %d: branch 0x%x mispredicted (seq %d) — pipeline squashed, redirect to 0x%x\n",
			indent, e.Cycle, e.PC, e.B, e.A)
		if t.lastChaosFlip != nil && t.lastChaosFlip.PC == e.PC && t.lastChaosFlip.Cycle <= e.Cycle {
			fmt.Fprintf(b, "%striggered by:\n", indent)
			explainEvent(b, a, t, t.lastChaosFlip, next)
		}
	case telemetry.EvChaosFlip:
		fmt.Fprintf(b, "%scycle %d: fault injection flipped the prediction of branch 0x%x\n", indent, e.Cycle, e.PC)
	case telemetry.EvChaosStall:
		fmt.Fprintf(b, "%scycle %d: fault injection stalled fetch for %d cycles\n", indent, e.Cycle, e.A)
	case telemetry.EvChaosJitter:
		fmt.Fprintf(b, "%scycle %d: fault injection inflated the latency of seq %d by %d cycles\n", indent, e.Cycle, e.B, e.A)
	case telemetry.EvChaosRevoke:
		fmt.Fprintf(b, "%scycle %d: fault injection forced a buffering revoke\n", indent, e.Cycle)
	case telemetry.EvNBLTHit:
		fmt.Fprintf(b, "%scycle %d: detection of loop tail 0x%x suppressed by the NBLT\n", indent, e.Cycle, e.PC)
		if i := findBefore(a, e.Cycle, telemetry.EvNBLTInsert, e.PC); i != nil {
			fmt.Fprintf(b, "%sbecause:\n", indent)
			explainEvent(b, a, t, i, next)
		}
	case telemetry.EvNBLTInsert:
		fmt.Fprintf(b, "%scycle %d: loop tail 0x%x registered as non-bufferable\n", indent, e.Cycle, e.PC)
		if r := findBefore(a, e.Cycle, telemetry.EvRevoke, 0); r != nil && r.Cycle == e.Cycle {
			fmt.Fprintf(b, "%s(recorded by the revoke at the same cycle)\n", indent)
		}
	default:
		fmt.Fprintf(b, "%scycle %d: %s pc=0x%x a=%d b=%d\n", indent, e.Cycle, e.Kind, e.PC, e.A, e.B)
	}
}

// findBefore returns the last event of kind k at or before cycle, matching
// pc when pc != 0.
func findBefore(a *Archive, cycle uint64, k telemetry.Kind, pc uint32) *telemetry.Event {
	for i := len(a.Events) - 1; i >= 0; i-- {
		e := &a.Events[i]
		if e.Cycle > cycle {
			continue
		}
		if e.Kind == k && (pc == 0 || e.PC == pc) {
			return e
		}
	}
	return nil
}

func countBetween(a *Archive, from, to uint64, k telemetry.Kind) int {
	n := 0
	for i := range a.Events {
		e := &a.Events[i]
		if e.Cycle < from || e.Cycle > to {
			continue
		}
		if e.Kind == k {
			n++
		}
	}
	return n
}
