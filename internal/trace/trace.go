// Package trace rebuilds per-instruction pipeline timing (dispatch, issue,
// completion, commit cycles) from telemetry lifecycle events and renders a
// textual pipeline diagram, in the spirit of SimpleScalar's ptrace. It is
// used for debugging the simulator and for teaching how the reuse mechanism
// changes instruction flow: reused instances appear with an 'R' marker and
// no fetch/decode occupancy.
package trace

import (
	"bytes"
	"fmt"
	"io"

	"reuseiq/internal/telemetry"
)

// InstRecord is the lifetime of one dynamic instruction.
type InstRecord struct {
	Seq      uint64
	PC       uint32
	Disasm   string
	Reused   bool
	Dispatch uint64 // cycle the instruction entered the window
	Issue    uint64 // 0 until issued
	Complete uint64 // 0 until written back
	Commit   uint64 // 0 until committed
	Squashed bool
}

// Records rebuilds per-instruction records from a telemetry tracer's
// lifecycle events (dispatch, issue, complete, commit) and mispredict
// events, in dispatch order; other event kinds are skipped. disasm names the
// instruction at a PC. Sequence numbers are allocated contiguously at
// dispatch, so records live in a slice indexed by seq minus the first
// dispatched seq.
//
// The tracer caps lifecycle events at its InstLimit, but its ring may still
// wrap on a long run: collect the events through Tracer.Sink, not
// Tracer.Events, when every row matters.
func Records(events []telemetry.Event, disasm func(pc uint32) string) []InstRecord {
	var recs []InstRecord
	at := func(seq uint64) *InstRecord {
		if len(recs) == 0 || seq < recs[0].Seq || seq-recs[0].Seq >= uint64(len(recs)) {
			return nil
		}
		return &recs[seq-recs[0].Seq]
	}
	for _, e := range events {
		switch e.Kind {
		case telemetry.EvDispatch:
			recs = append(recs, InstRecord{Seq: e.A, PC: e.PC, Disasm: disasm(e.PC), Reused: e.B == 1, Dispatch: e.Cycle})
		case telemetry.EvIssue:
			if rec := at(e.A); rec != nil {
				rec.Issue = e.Cycle
			}
		case telemetry.EvComplete:
			if rec := at(e.A); rec != nil {
				rec.Complete = e.Cycle
			}
		case telemetry.EvCommit:
			if rec := at(e.A); rec != nil {
				rec.Commit = e.Cycle
			}
		case telemetry.EvMispredict:
			// Recovery squashes everything dispatched after the branch
			// (B = its seq); none of it can have committed yet. A record
			// that merely never committed (HALT, or still in flight when
			// the run ended) is not squashed.
			for i := len(recs) - 1; i >= 0 && recs[i].Seq > e.B; i-- {
				recs[i].Squashed = true
			}
		default: // other state-machine events carry no per-instruction timing
		}
	}
	return recs
}

// Render writes a pipeline diagram: one row per instruction, one column per
// cycle, with D=dispatch, I=issue, C=complete, T=commit (retire), '=' while
// in flight, 'x' for squashed instructions, and 'R' prefixing reused
// instances.
//
//reuse:deterministic
func Render(w io.Writer, recs []InstRecord) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "trace: no instructions recorded")
		return
	}
	lo := recs[0].Dispatch
	hi := lo
	for _, rec := range recs {
		hi = max(hi, rec.Dispatch, rec.Issue, rec.Complete, rec.Commit)
	}
	if hi-lo > 200 {
		hi = lo + 200 // keep rows printable
	}
	fmt.Fprintf(w, "pipeline trace, cycles %d..%d (D=dispatch I=issue C=complete T=retire)\n", lo, hi)
	for _, rec := range recs {
		row := bytes.Repeat([]byte{' '}, int(hi-lo+1))
		mark := func(cycle uint64, ch byte) {
			if cycle >= lo && cycle <= hi {
				row[cycle-lo] = ch
			}
		}
		// In-flight shading between dispatch and the last known event.
		last := max(rec.Dispatch, rec.Issue, rec.Complete, rec.Commit)
		for c := rec.Dispatch; c <= last && c <= hi; c++ {
			row[c-lo] = '='
		}
		mark(rec.Dispatch, 'D')
		if rec.Issue > 0 {
			mark(rec.Issue, 'I')
		}
		if rec.Complete > 0 {
			mark(rec.Complete, 'C')
		}
		if rec.Commit > 0 {
			mark(rec.Commit, 'T')
		}
		flag := ' '
		if rec.Reused {
			flag = 'R'
		}
		if rec.Squashed {
			flag = 'x'
		}
		fmt.Fprintf(w, "%5d %c %-26s |%s|\n", rec.Seq, flag, truncate(rec.Disasm, 26), row)
	}
}

// Stats summarizes recorded latencies: average dispatch-to-issue and
// dispatch-to-commit cycles over committed instructions.
func Stats(recs []InstRecord) (avgWait, avgLifetime float64, committed int) {
	var wait, life uint64
	for _, rec := range recs {
		if rec.Commit == 0 || rec.Squashed {
			continue
		}
		committed++
		if rec.Issue >= rec.Dispatch {
			wait += rec.Issue - rec.Dispatch
		}
		life += rec.Commit - rec.Dispatch
	}
	if committed == 0 {
		return 0, 0, 0
	}
	return float64(wait) / float64(committed), float64(life) / float64(committed), committed
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
