package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/trace"
)

func disasm(pc uint32) string { return fmt.Sprintf("op%d", pc) }

func TestRecorderLifecycle(t *testing.T) {
	tel := telemetry.New(telemetry.Config{InstLimit: 4})
	tel.BeginCycle(10)
	tel.InstDispatch(1, 2, false)
	tel.InstDispatch(2, 3, true)
	tel.BeginCycle(11)
	tel.InstIssue(1, 2)
	tel.BeginCycle(12)
	tel.InstComplete(1, 2)
	tel.BeginCycle(13)
	tel.InstCommit(1, 2)
	recs := trace.Records(tel.Events(), disasm)
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	got := recs[0]
	if got.Seq != 1 || got.PC != 2 || got.Disasm != "op2" || got.Reused {
		t.Errorf("record identity = %+v", got)
	}
	if got.Dispatch != 10 || got.Issue != 11 || got.Complete != 12 || got.Commit != 13 || got.Squashed {
		t.Errorf("record = %+v", got)
	}
	if !recs[1].Reused || recs[1].Issue != 0 || recs[1].Commit != 0 {
		t.Errorf("reused record = %+v", recs[1])
	}
}

func TestRecorderCapacity(t *testing.T) {
	tel := telemetry.New(telemetry.Config{InstLimit: 2})
	for seq := uint64(1); seq <= 5; seq++ {
		tel.BeginCycle(seq)
		tel.InstDispatch(seq, 0, false)
		tel.InstCommit(seq, 0)
	}
	recs := trace.Records(tel.Events(), disasm)
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Errorf("kept %+v, want seqs 1 and 2", recs)
	}
	// Lifecycle events for unrecorded instructions must be ignored safely.
	stray := []telemetry.Event{
		{Kind: telemetry.EvIssue, A: 99},
		{Kind: telemetry.EvCommit, A: 0},
		{Kind: telemetry.EvDispatch, A: 7, Cycle: 3},
		{Kind: telemetry.EvComplete, A: 6},
		{Kind: telemetry.EvCommit, A: 8},
	}
	recs = trace.Records(stray, disasm)
	if len(recs) != 1 || recs[0].Complete != 0 || recs[0].Commit != 0 {
		t.Errorf("stray events stamped a record: %+v", recs)
	}
}

func TestRecorderSquash(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	tel.BeginCycle(5)
	tel.InstDispatch(1, 0, false) // the branch
	tel.InstDispatch(2, 4, false)
	tel.InstDispatch(3, 8, false)
	tel.BeginCycle(7)
	tel.Mispredict(0, 40, 1)
	tel.InstDispatch(4, 40, false) // correct path, never commits before the end
	recs := trace.Records(tel.Events(), disasm)
	for i, want := range []bool{false, true, true, false} {
		if recs[i].Squashed != want {
			t.Errorf("seq %d squashed = %v, want %v", recs[i].Seq, recs[i].Squashed, want)
		}
	}
}

func TestStatsIgnoreSquashed(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	tel.BeginCycle(10)
	tel.InstDispatch(1, 0, false)
	tel.BeginCycle(11)
	tel.InstDispatch(2, 0, false)
	tel.BeginCycle(12)
	tel.InstIssue(1, 0)
	tel.BeginCycle(15)
	tel.Mispredict(0, 0, 1)
	tel.BeginCycle(20)
	tel.InstCommit(1, 0)
	wait, life, n := trace.Stats(trace.Records(tel.Events(), disasm))
	if n != 1 || wait != 2 || life != 10 {
		t.Errorf("stats = %v %v %v", wait, life, n)
	}
}

// traceLoop runs a tight reusable loop with a tracer recording the first
// limit instructions, returning the events collected through the sink, the
// tracer, and the program's disassembler.
func traceLoop(t *testing.T, limit, ring int) ([]telemetry.Event, *telemetry.Tracer, func(uint32) string) {
	t.Helper()
	p := asm.MustAssemble(`
	li   $r3, 200
loop:	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	m := pipeline.New(pipeline.DefaultConfig(), p)
	tel := telemetry.New(telemetry.Config{InstLimit: limit, RingSize: ring})
	var events []telemetry.Event
	tel.Sink = func(e telemetry.Event) { events = append(events, e) }
	m.AttachTelemetry(tel)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return events, tel, func(pc uint32) string {
		in, _ := p.InstAt(pc)
		return in.Disasm(pc)
	}
}

func TestRenderEndToEnd(t *testing.T) {
	events, _, dis := traceLoop(t, 150, 0)
	recs := trace.Records(events, dis)
	if len(recs) != 150 {
		t.Fatalf("records = %d, want 150", len(recs))
	}
	var b strings.Builder
	trace.Render(&b, recs)
	out := b.String()
	for _, want := range []string{"pipeline trace", "D", "T", "addi"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// The reused instances of this tight loop must appear with the R flag.
	if !strings.Contains(out, " R ") {
		t.Error("no reused instance marked in the trace")
	}
	wait, life, n := trace.Stats(recs)
	if n == 0 || life < wait {
		t.Errorf("stats wait=%v life=%v n=%d", wait, life, n)
	}
}

// A ring smaller than the run's event count drops the earliest lifecycle
// events, but the sink still sees every one: the diagram built from the sink
// matches the one built from a ring large enough to hold the whole run.
func TestRecordsSurviveRingWrap(t *testing.T) {
	full, fullTel, dis := traceLoop(t, 150, 0)
	sunk, smallTel, _ := traceLoop(t, 150, 64)
	if fullTel.Dropped() != 0 || smallTel.Dropped() == 0 {
		t.Fatalf("dropped: full ring %d, small ring %d", fullTel.Dropped(), smallTel.Dropped())
	}
	render := func(events []telemetry.Event) string {
		var b strings.Builder
		trace.Render(&b, trace.Records(events, dis))
		return b.String()
	}
	want := render(fullTel.Events())
	if got := render(sunk); got != want {
		t.Errorf("sink diagram differs from the full ring's:\n%s\nwant:\n%s", got, want)
	}
	if render(full) != want {
		t.Error("sink and ring disagree on a ring that did not wrap")
	}
	if render(smallTel.Events()) == want {
		t.Error("the wrapped ring still held every row; the test no longer exercises the drop")
	}
}

func TestRenderEmpty(t *testing.T) {
	recs := trace.Records(nil, disasm)
	if len(recs) != 0 {
		t.Fatalf("records from no events = %d", len(recs))
	}
	var b strings.Builder
	trace.Render(&b, recs)
	if !strings.Contains(b.String(), "no instructions") {
		t.Error("empty render message missing")
	}
	if wait, life, n := trace.Stats(recs); wait != 0 || life != 0 || n != 0 {
		t.Errorf("empty stats = %v %v %v", wait, life, n)
	}
}
