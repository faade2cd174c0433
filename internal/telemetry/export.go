package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"reuseiq/internal/core"
)

// Chrome trace-event JSON export (the format ui.perfetto.dev and
// chrome://tracing load). One simulated cycle maps to one microsecond of
// trace time. Tracks (tids) are:
//
//	0  riq-state   X slices: normal / loop-buffering / code-reuse spans
//	1  fetch-gate  X slices while the front end is gated
//	2  dispatch    per-instruction dispatch->issue slices (first InstLimit)
//	3  execute     per-instruction issue->writeback slices
//	4  commit      per-instruction instants at commit
//	5  events      instants: revokes, NBLT activity, mispredicts, chaos
//
// Only complete (ph "X") and instant (ph "i") events are emitted, plus "M"
// metadata, so begin/end balance holds trivially and the file is valid even
// when the ring dropped events.
const (
	tidState = iota
	tidGate
	tidDispatch
	tidExecute
	tidCommit
	tidEvents
)

// traceEvent is one Chrome trace-event object.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// instLife accumulates one instruction's lifecycle while converting events.
type instLife struct {
	pc                                uint32
	reused                            bool
	dispatch, issue, complete, commit uint64
	hasDispatch                       bool
}

// WriteTraceJSON renders the tracer's retained events as Chrome trace-event
// JSON. finalCycle bounds the last open state span.
func WriteTraceJSON(w io.Writer, t *Tracer, finalCycle uint64) error {
	return writeTrace(w, t.Events(), traceOpts{final: finalCycle, knownStart: t.Dropped() == 0})
}

// WriteTraceWindow renders the events falling inside the cycle window
// [from, to] as Chrome trace-event JSON (the flight recorder's incident
// export). Timestamps stay absolute cycles — no rebasing — so a Perfetto
// timestamp in the exported file maps 1:1 back onto a debugger `seek`
// target; a "trace_window" metadata record pins the window bounds and the
// zero clock offset so validators can verify that correspondence.
func WriteTraceWindow(w io.Writer, events []Event, from, to uint64) error {
	kept := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Cycle >= from && e.Cycle <= to {
			kept = append(kept, e)
		}
	}
	win := [2]uint64{from, to}
	return writeTrace(w, kept, traceOpts{final: to, knownStart: from == 0, window: &win})
}

// traceOpts parameterizes the shared renderer behind WriteTraceJSON and
// WriteTraceWindow.
type traceOpts struct {
	final      uint64     // bound for the last open state/gate span
	knownStart bool       // the RIQ state before the first event is known (Normal)
	window     *[2]uint64 // emit a trace_window metadata record
}

func writeTrace(w io.Writer, events []Event, opts traceOpts) error {
	finalCycle := opts.final
	out := make([]traceEvent, 0, len(events)+16)

	meta := func(tid int, name string) {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(tidState, "riq-state")
	meta(tidGate, "fetch-gate")
	meta(tidDispatch, "dispatch")
	meta(tidExecute, "execute")
	meta(tidCommit, "commit")
	meta(tidEvents, "events")
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "reusesim"},
	})
	if opts.window != nil {
		out = append(out, traceEvent{
			Name: "trace_window", Ph: "M", Pid: 1,
			Args: map[string]any{
				"start_cycle":  opts.window[0],
				"end_cycle":    opts.window[1],
				"cycle_offset": uint64(0),
			},
		})
	}

	span := func(tid int, name string, from, to uint64, args map[string]any) {
		dur := uint64(1)
		if to > from {
			dur = to - from
		}
		if opts.window != nil {
			// A span opening on the window's last cycle (an instruction
			// dispatched there) would spill past it.
			dur = min(dur, opts.window[1]-from)
		}
		out = append(out, traceEvent{Name: name, Cat: "riq", Ph: "X",
			Ts: from, Dur: dur, Pid: 1, Tid: tid, Args: args})
	}
	instant := func(tid int, name string, cycle uint64, args map[string]any) {
		out = append(out, traceEvent{Name: name, Cat: "riq", Ph: "i",
			Ts: cycle, Pid: 1, Tid: tid, S: "t", Args: args})
	}

	// State and gate tracks, reconstructed from the transition events. The
	// ring may have dropped the run's earliest events; spans then start at
	// the first retained transition rather than cycle zero.
	state := core.Normal
	stateStart := uint64(0)
	gateStart := uint64(0)
	gateKnown := false       // a promote was seen, so the gate span has a start
	known := opts.knownStart // state before the first retained event is known
	insts := map[uint64]*instLife{}

	closeState := func(to core.State, cycle uint64, head uint32) {
		if known {
			span(tidState, state.String(), stateStart, cycle,
				map[string]any{"head": fmt.Sprintf("0x%x", head)})
		}
		known = true
		state = to
		stateStart = cycle
	}

	for _, e := range events {
		switch e.Kind {
		case EvBuffer:
			closeState(core.Buffering, e.Cycle, e.PC)
		case EvPromote:
			closeState(core.Reuse, e.Cycle, e.PC)
			gateStart, gateKnown = e.Cycle, true
		case EvRevoke:
			closeState(core.Normal, e.Cycle, e.PC)
			instant(tidEvents, "revoke:"+core.RevokeReason(e.A).String(), e.Cycle,
				map[string]any{"head": fmt.Sprintf("0x%x", e.PC)})
		case EvReuseExit:
			closeState(core.Normal, e.Cycle, e.PC)
			if gateKnown {
				span(tidGate, "gated", gateStart, e.Cycle,
					map[string]any{"head": fmt.Sprintf("0x%x", e.PC)})
				gateKnown = false
			}
		case EvIteration:
			instant(tidEvents, "iteration", e.Cycle,
				map[string]any{"size": e.A})
		case EvNBLTHit:
			instant(tidEvents, "nblt-hit", e.Cycle,
				map[string]any{"tail": fmt.Sprintf("0x%x", e.PC)})
		case EvNBLTInsert:
			instant(tidEvents, "nblt-insert", e.Cycle,
				map[string]any{"tail": fmt.Sprintf("0x%x", e.PC)})
		case EvMispredict:
			instant(tidEvents, "mispredict", e.Cycle, map[string]any{
				"pc": fmt.Sprintf("0x%x", e.PC), "target": fmt.Sprintf("0x%x", e.A)})
		case EvChaosFlip, EvChaosStall, EvChaosJitter, EvChaosRevoke:
			instant(tidEvents, e.Kind.String(), e.Cycle, nil)
		case EvDispatch:
			insts[e.A] = &instLife{pc: e.PC, reused: e.B == 1,
				dispatch: e.Cycle, hasDispatch: true}
		case EvIssue:
			if l := insts[e.A]; l != nil {
				l.issue = e.Cycle
			}
		case EvComplete:
			if l := insts[e.A]; l != nil {
				l.complete = e.Cycle
			}
		case EvCommit:
			if l := insts[e.A]; l != nil {
				l.commit = e.Cycle
			}
		}
	}
	// Close the final state span and a still-gated gate span.
	if known && finalCycle > stateStart {
		span(tidState, state.String(), stateStart, finalCycle, nil)
		if state == core.Reuse && gateKnown {
			span(tidGate, "gated", gateStart, finalCycle, nil)
		}
	}

	// Instruction tracks, in seq order for deterministic output.
	seqs := make([]uint64, 0, len(insts))
	for seq := range insts {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		l := insts[seq]
		if !l.hasDispatch {
			continue
		}
		name := fmt.Sprintf("pc=0x%x", l.pc)
		args := map[string]any{"seq": seq}
		if l.reused {
			args["reused"] = true
		}
		if l.issue > 0 {
			span(tidDispatch, name, l.dispatch, l.issue, args)
			if l.complete > 0 {
				span(tidExecute, name, l.issue, l.complete, args)
			}
		} else {
			span(tidDispatch, name, l.dispatch, l.dispatch+1, args)
		}
		if l.commit > 0 {
			instant(tidCommit, name, l.commit, args)
		}
	}

	// Perfetto tolerates any order, but monotone timestamps make the file
	// diffable and let the validator check ordering cheaply. Metadata (ts
	// 0) sorts first.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ph == "M" != (out[j].Ph == "M") {
			return out[i].Ph == "M"
		}
		return out[i].Ts < out[j].Ts
	})

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// jsonlEvent is the JSONL dump encoding of one Event.
type jsonlEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	PC    string `json:"pc,omitempty"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
}

// MarshalEvent renders one event in the canonical JSON encoding shared by
// JSONLSink, WriteJSONL and the obs SSE stream (no trailing newline).
func MarshalEvent(e Event) []byte { return AppendEvent(nil, e) }

// AppendEvent appends MarshalEvent's exact bytes to dst and returns the
// extended slice — the allocation-free path for high-rate sinks.
// TestAppendEventCanonical pins byte equality with the encoding/json
// rendering of jsonlEvent.
//
//reuse:deterministic
func AppendEvent(dst []byte, e Event) []byte {
	dst = append(dst, `{"cycle":`...)
	dst = strconv.AppendUint(dst, e.Cycle, 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, '"')
	if e.PC != 0 {
		dst = append(dst, `,"pc":"0x`...)
		dst = strconv.AppendUint(dst, uint64(e.PC), 16)
		dst = append(dst, '"')
	}
	if e.A != 0 {
		dst = append(dst, `,"a":`...)
		dst = strconv.AppendUint(dst, e.A, 10)
	}
	if e.B != 0 {
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendUint(dst, e.B, 10)
	}
	return append(dst, '}')
}

// ParseKind maps a canonical kind name (Kind.String) back to its Kind.
func ParseKind(name string) (Kind, bool) {
	for i := 1; i < len(kindNames); i++ {
		if kindNames[i] == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// UnmarshalEvent parses one canonical JSON event object (the inverse of
// MarshalEvent), such as a line JSONLSink or WriteJSONL wrote.
func UnmarshalEvent(data []byte) (Event, error) {
	var je jsonlEvent
	if err := json.Unmarshal(data, &je); err != nil {
		return Event{}, err
	}
	k, ok := ParseKind(je.Kind)
	if !ok {
		return Event{}, fmt.Errorf("telemetry: unknown event kind %q", je.Kind)
	}
	e := Event{Cycle: je.Cycle, Kind: k, A: je.A, B: je.B}
	if je.PC != "" {
		pc, err := strconv.ParseUint(strings.TrimPrefix(je.PC, "0x"), 16, 32)
		if err != nil {
			return Event{}, fmt.Errorf("telemetry: bad event pc %q: %w", je.PC, err)
		}
		e.PC = uint32(pc)
	}
	return e, nil
}

// JSONLSink returns a Sink that streams each event as one JSON line to w.
// Install it on Tracer.Sink before the run; the caller owns flushing/closing
// of w (wrap in a bufio.Writer for throughput and call Flush at the end).
func JSONLSink(w io.Writer) func(Event) {
	return func(e Event) {
		line := append(MarshalEvent(e), '\n')
		_, _ = w.Write(line)
	}
}

// WriteJSONL dumps the tracer's retained events to w, one JSON object per
// line (the post-hoc variant of JSONLSink).
func WriteJSONL(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	sink := JSONLSink(bw)
	for _, e := range t.Events() {
		sink(e)
	}
	return bw.Flush()
}

// WriteSessionTable renders the reuse-session audit log as an aligned text
// table. An empty log renders an explicit marker line rather than a bare
// header, so a pipeline that never captured a loop is unmistakable.
func WriteSessionTable(w io.Writer, sessions []Session) {
	if len(sessions) == 0 {
		fmt.Fprintln(w, "no reuse sessions (the controller never entered Loop Buffering)")
		return
	}
	fmt.Fprintf(w, "%4s %10s %6s %10s %10s %6s %9s %9s %8s  %s\n",
		"id", "head", "size", "start", "end", "iters", "buffered", "reused", "gated", "end-reason")
	for _, s := range sessions {
		reason := s.EndReason.String()
		if s.EndReason == core.ReasonNone {
			reason = "run-end"
		}
		fmt.Fprintf(w, "%4d 0x%08x %6d %10d %10d %6d %9d %9d %8d  %s\n",
			s.ID, s.Head, s.StaticSize, s.StartCycle, s.EndCycle,
			s.Iterations, s.BufferedInsts, s.ReusedInsts, s.GatedCycles, reason)
	}
}

// ValidateTrace checks that r holds well-formed Chrome trace-event JSON:
// every event has a phase and a non-negative timestamp, timestamps are
// monotone non-decreasing (metadata first), and "B"/"E" begin/end events are
// balanced per (pid, tid). It is the gate behind `make telemetry-check`.
func ValidateTrace(r io.Reader) error {
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  int      `json:"pid"`
			Tid  int      `json:"tid"`
			Dur  float64  `json:"dur"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("telemetry: trace JSON malformed: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("telemetry: trace has no events")
	}
	type track struct{ pid, tid int }
	depth := map[track]int{}
	lastTs := -1.0
	inMeta := true
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "":
			return fmt.Errorf("telemetry: event %d (%q) has no phase", i, e.Name)
		case "M":
			if !inMeta {
				return fmt.Errorf("telemetry: metadata event %d after timed events", i)
			}
			continue
		}
		inMeta = false
		if e.Ts == nil {
			return fmt.Errorf("telemetry: event %d (%q) has no timestamp", i, e.Name)
		}
		ts := *e.Ts
		if ts < 0 {
			return fmt.Errorf("telemetry: event %d (%q) has negative ts %g", i, e.Name, ts)
		}
		if ts < lastTs {
			return fmt.Errorf("telemetry: event %d (%q) ts %g < previous %g (not monotone)",
				i, e.Name, ts, lastTs)
		}
		lastTs = ts
		tr := track{e.Pid, e.Tid}
		switch e.Ph {
		case "B":
			depth[tr]++
		case "E":
			depth[tr]--
			if depth[tr] < 0 {
				return fmt.Errorf("telemetry: event %d (%q): E without matching B on pid=%d tid=%d",
					i, e.Name, e.Pid, e.Tid)
			}
		case "X":
			if e.Dur < 0 {
				return fmt.Errorf("telemetry: event %d (%q) has negative dur", i, e.Name)
			}
		}
	}
	for tr, d := range depth {
		if d != 0 {
			return fmt.Errorf("telemetry: %d unbalanced B events on pid=%d tid=%d", d, tr.pid, tr.tid)
		}
	}
	return nil
}

// ValidateTraceWindow checks the extra contract of a flight-recorder window
// export (WriteTraceWindow): a "trace_window" metadata record must be
// present with a zero cycle offset (the seek-by-Perfetto-timestamp
// guarantee), and every timed event must fall inside its declared
// [start_cycle, end_cycle] bounds — slice durations may clamp at the end
// bound but never spill past it.
func ValidateTraceWindow(r io.Reader) error {
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("telemetry: trace JSON malformed: %w", err)
	}
	var start, end float64
	found := false
	for _, e := range f.TraceEvents {
		if e.Ph != "M" || e.Name != "trace_window" {
			continue
		}
		found = true
		get := func(key string) (float64, error) {
			v, ok := e.Args[key].(float64)
			if !ok {
				return 0, fmt.Errorf("telemetry: trace_window lacks numeric %q", key)
			}
			return v, nil
		}
		var err error
		if start, err = get("start_cycle"); err != nil {
			return err
		}
		if end, err = get("end_cycle"); err != nil {
			return err
		}
		off, err := get("cycle_offset")
		if err != nil {
			return err
		}
		if off != 0 {
			return fmt.Errorf("telemetry: trace_window cycle_offset = %g, want 0 (timestamps must equal cycles)", off)
		}
	}
	if !found {
		return fmt.Errorf("telemetry: no trace_window metadata record (not a window export?)")
	}
	if end < start {
		return fmt.Errorf("telemetry: trace_window bounds inverted: [%g, %g]", start, end)
	}
	for i, e := range f.TraceEvents {
		if e.Ph == "M" || e.Ts == nil {
			continue
		}
		if *e.Ts < start || *e.Ts > end {
			return fmt.Errorf("telemetry: event %d (%q) ts %g outside window [%g, %g]",
				i, e.Name, *e.Ts, start, end)
		}
		if e.Ph == "X" && *e.Ts+e.Dur > end {
			return fmt.Errorf("telemetry: event %d (%q) spills past the window end (%g+%g > %g)",
				i, e.Name, *e.Ts, e.Dur, end)
		}
	}
	return nil
}

// CountKind returns how many retained events have the given kind (helper for
// tests and the trace checker).
func CountKind(events []Event, k Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
