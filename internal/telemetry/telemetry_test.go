package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"reuseiq/internal/core"
)

func TestRingRetainsNewestAndCountsDrops(t *testing.T) {
	tr := New(Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		tr.BeginCycle(uint64(i))
		tr.Emit(EvIteration, 0x100, uint64(i), 0)
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.A != want {
			t.Errorf("event %d: A = %d, want %d (oldest-first order)", i, e.A, want)
		}
	}
}

func TestRingNoDropsUnderCapacity(t *testing.T) {
	tr := New(Config{RingSize: 8})
	for i := 0; i < 5; i++ {
		tr.Emit(EvBuffer, 0, uint64(i), 0)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
	if got := len(tr.Events()); got != 5 {
		t.Errorf("retained %d, want 5", got)
	}
}

// ctl fabricates a controller event stream: a session that buffers two
// iterations, promotes, and exits reuse.
func playSession(tr *Tracer) {
	tr.BeginCycle(100)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlBuffer, Head: 0x40, Tail: 0x50, Size: 5, BufferedInsts: 7})
	tr.BeginCycle(110)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlIteration, Head: 0x40, Size: 5, BufferedInsts: 12})
	tr.BeginCycle(120)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlIteration, Head: 0x40, Size: 5, BufferedInsts: 17})
	tr.BeginCycle(121)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlPromote, Head: 0x40, Tail: 0x50, BufferedInsts: 17})
	for c := uint64(122); c < 150; c++ {
		tr.BeginCycle(c)
		tr.GatedCycle()
		tr.ReuseSupplied(2)
	}
	tr.BeginCycle(150)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlReuseExit, Head: 0x40, BufferedInsts: 17})
}

func TestSessionLifecycle(t *testing.T) {
	tr := New(Config{RingSize: 64})
	playSession(tr)
	tr.Finalize(200)

	sessions := tr.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	s := sessions[0]
	if s.Head != 0x40 || s.Tail != 0x50 || s.StaticSize != 5 {
		t.Errorf("loop identity wrong: %+v", s)
	}
	if s.StartCycle != 100 || s.PromoteCycle != 121 || s.EndCycle != 150 {
		t.Errorf("cycle stamps wrong: start=%d promote=%d end=%d",
			s.StartCycle, s.PromoteCycle, s.EndCycle)
	}
	if !s.Promoted() {
		t.Error("session should report promoted")
	}
	if s.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", s.Iterations)
	}
	if s.BufferedInsts != 10 {
		t.Errorf("BufferedInsts = %d, want 10 (delta from open)", s.BufferedInsts)
	}
	if s.ReusedInsts != 56 {
		t.Errorf("ReusedInsts = %d, want 56", s.ReusedInsts)
	}
	if s.GatedCycles != 28 {
		t.Errorf("GatedCycles = %d, want 28", s.GatedCycles)
	}
	if s.EndReason != core.ReasonReuseExit {
		t.Errorf("EndReason = %v, want reuse-exit", s.EndReason)
	}
	if tr.SessionCycles.Count() != 1 {
		t.Errorf("SessionCycles observations = %d, want 1", tr.SessionCycles.Count())
	}
}

func TestSessionRevokedBeforePromotion(t *testing.T) {
	tr := New(Config{RingSize: 64})
	tr.BeginCycle(10)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlBuffer, Head: 0x80, Tail: 0x90, Size: 4, BufferedInsts: 0})
	tr.BeginCycle(15)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlRevoke, Head: 0x80, Reason: core.ReasonInner, BufferedInsts: 3})
	tr.Finalize(20)

	sessions := tr.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	s := sessions[0]
	if s.Promoted() {
		t.Error("revoked-while-buffering session reports promoted")
	}
	if s.EndReason != core.ReasonInner {
		t.Errorf("EndReason = %v, want inner", s.EndReason)
	}
	if s.BufferedInsts != 3 || s.GatedCycles != 0 {
		t.Errorf("buffered=%d gated=%d, want 3 and 0", s.BufferedInsts, s.GatedCycles)
	}
}

func TestFinalizeClosesOpenSession(t *testing.T) {
	tr := New(Config{RingSize: 64})
	tr.BeginCycle(10)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlBuffer, Head: 0x80, Tail: 0x90, Size: 4, BufferedInsts: 2})
	tr.BeginCycle(30)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlIteration, Head: 0x80, Size: 4, BufferedInsts: 6})
	tr.Finalize(42)

	sessions := tr.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	s := sessions[0]
	if s.EndCycle != 42 || s.EndReason != core.ReasonNone {
		t.Errorf("finalized session: end=%d reason=%v", s.EndCycle, s.EndReason)
	}
	if s.BufferedInsts != 4 {
		t.Errorf("BufferedInsts = %d, want 4 (through last complete iteration)", s.BufferedInsts)
	}
	// Finalize is idempotent: a second call must not duplicate the session.
	tr.Finalize(42)
	if len(tr.Sessions()) != 1 {
		t.Errorf("double finalize duplicated the session")
	}
}

func TestInstLimitCapsLifecycleEvents(t *testing.T) {
	tr := New(Config{RingSize: 1024, InstLimit: 3})
	for seq := uint64(1); seq <= 10; seq++ {
		tr.InstDispatch(seq, 0x100, false)
		tr.InstIssue(seq, 0x100)
	}
	ev := tr.Events()
	if got := CountKind(ev, EvDispatch); got != 3 {
		t.Errorf("dispatch events = %d, want 3 (InstLimit)", got)
	}
	if got := CountKind(ev, EvIssue); got != 3 {
		t.Errorf("issue events = %d, want 3 (InstLimit)", got)
	}

	off := New(Config{RingSize: 64, InstLimit: -1})
	off.InstDispatch(1, 0x100, false)
	off.InstCommit(1, 0x100)
	if off.Total() != 0 {
		t.Errorf("InstLimit<0 still recorded %d events", off.Total())
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 1000, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Max() != 1000 {
		t.Errorf("count=%d max=%d", h.Count(), h.Max())
	}
	if want := float64(1+2+3+1000+5) / 5; h.Mean() != want {
		t.Errorf("mean = %f, want %f", h.Mean(), want)
	}

	var r Registry
	r.RegisterHistogram("h", &h)
	s := r.Snapshot()
	if got := s.Get("h.le_2"); got != 2 {
		t.Errorf("h.le_2 = %d, want 2 (cumulative: values 1 and 2)", got)
	}
	if got := s.Get("h.le_1024"); got != 5 {
		t.Errorf("h.le_1024 = %d, want 5", got)
	}
	if got := s.Get("h.count"); got != 5 {
		t.Errorf("h.count = %d, want 5", got)
	}
	if got := s.Get("h.max"); got != 1000 {
		t.Errorf("h.max = %d, want 1000", got)
	}
	// Buckets beyond the max observation are elided.
	for _, name := range s.Names() {
		if name == "h.le_4096" {
			t.Error("empty trailing bucket h.le_4096 not elided")
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(1 << 25) // beyond the largest finite bucket
	var r Registry
	r.RegisterHistogram("h", &h)
	s := r.Snapshot()
	if got := s.Get("h.le_inf"); got != 1 {
		t.Errorf("h.le_inf = %d, want 1", got)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	var r Registry
	r.CounterVal("a", 7)
	r.Counter("b", func() uint64 { return 9 })
	r.Gauge("frac", func() float64 { return 0.5 })
	s := r.Snapshot()
	if s.Get("a") != 7 || s.Get("b") != 9 {
		t.Errorf("counters wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	if got := s.Get("frac.ppm"); got != 500000 {
		t.Errorf("frac.ppm = %d, want 500000", got)
	}
}

// TestTypedSnapshotSorted pins TypedSnapshot's ordering contract: sorted by
// name within each kind, independent of registration order. The run ledger
// persists snapshots verbatim and diffs them across runs and processes, so
// two registries holding the same metrics must snapshot identically.
func TestTypedSnapshotSorted(t *testing.T) {
	var h Histogram
	h.Observe(3)
	build := func(names []string) *MetricsSnapshot {
		var r Registry
		for _, n := range names {
			r.CounterVal(n, uint64(len(n)))
			r.Gauge("g."+n, func() float64 { return 0.5 })
			r.RegisterHistogram("hist."+n, &h)
		}
		return r.TypedSnapshot()
	}
	fwd := build([]string{"sim.cycles", "iq.dispatches", "bpred.lookups", "reuse.detections"})
	rev := build([]string{"reuse.detections", "bpred.lookups", "iq.dispatches", "sim.cycles"})

	wantC := []string{"bpred.lookups", "iq.dispatches", "reuse.detections", "sim.cycles"}
	for i, c := range fwd.Counters {
		if c.Name != wantC[i] {
			t.Fatalf("counter %d = %q, want %q (sorted)", i, c.Name, wantC[i])
		}
	}
	for i := range fwd.Gauges {
		if fwd.Gauges[i].Name != "g."+wantC[i] {
			t.Errorf("gauge %d = %q, not sorted", i, fwd.Gauges[i].Name)
		}
	}
	for i := range fwd.Hists {
		if fwd.Hists[i].Name != "hist."+wantC[i] {
			t.Errorf("hist %d = %q, not sorted", i, fwd.Hists[i].Name)
		}
	}
	// Registration order must not leak into the snapshot.
	if !reflect.DeepEqual(fwd.Counters, rev.Counters) ||
		!reflect.DeepEqual(fwd.Gauges, rev.Gauges) ||
		!reflect.DeepEqual(fwd.Hists, rev.Hists) {
		t.Error("snapshots differ between registration orders")
	}
	// Counter values must still follow their names through the sort.
	for _, c := range fwd.Counters {
		if c.Value != uint64(len(c.Name)) {
			t.Errorf("%s = %d, want %d: value detached from its name by the sort", c.Name, c.Value, len(c.Name))
		}
	}
}

func TestWriteTraceJSONValidates(t *testing.T) {
	tr := New(Config{RingSize: 256})
	playSession(tr)
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, tr, 200); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("generated trace fails validation: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"loop-buffering", "code-reuse", "gated", "riq-state"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// When the ring dropped early transitions the exporter must not fabricate
// state spans from an unknown starting state, and the file must still
// validate.
func TestWriteTraceJSONAfterRingDrop(t *testing.T) {
	tr := New(Config{RingSize: 4})
	playSession(tr) // gated cycles do not emit, but buffer/promote/exit do
	for i := 0; i < 8; i++ {
		tr.BeginCycle(uint64(160 + i))
		tr.Emit(EvIteration, 0x40, 1, 0)
	}
	if tr.Dropped() == 0 {
		t.Fatal("test expects ring drops")
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, tr, 200); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("post-drop trace fails validation: %v", err)
	}
}

// A window ending on the cycle an instruction dispatches, which is where a
// budget-aborted run stops, must not give that instruction a span past the
// window's end.
func TestWriteTraceWindowEndsOnDispatch(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: EvDispatch, PC: 0x40, A: 1},
		{Cycle: 12, Kind: EvIssue, A: 1},
		{Cycle: 20, Kind: EvDispatch, PC: 0x44, A: 2},
		{Cycle: 20, Kind: EvIssue, A: 2},
	}
	var buf bytes.Buffer
	if err := WriteTraceWindow(&buf, events, 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceWindow(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("window ending on a dispatch: %v", err)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"malformed", `{"traceEvents": [`, "malformed"},
		{"empty", `{"traceEvents": []}`, "no events"},
		{"no-phase", `{"traceEvents":[{"name":"x","ts":1}]}`, "no phase"},
		{"no-ts", `{"traceEvents":[{"name":"x","ph":"i"}]}`, "no timestamp"},
		{"negative-ts", `{"traceEvents":[{"name":"x","ph":"i","ts":-4}]}`, "negative ts"},
		{"non-monotone", `{"traceEvents":[{"name":"a","ph":"i","ts":5},{"name":"b","ph":"i","ts":2}]}`, "not monotone"},
		{"unbalanced-b", `{"traceEvents":[{"name":"a","ph":"B","ts":1}]}`, "unbalanced"},
		{"e-without-b", `{"traceEvents":[{"name":"a","ph":"E","ts":1}]}`, "E without matching B"},
		{"late-metadata", `{"traceEvents":[{"name":"a","ph":"i","ts":1},{"name":"m","ph":"M"}]}`, "after timed"},
	}
	for _, c := range cases {
		err := ValidateTrace(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestValidateTraceAcceptsBalancedBE(t *testing.T) {
	in := `{"traceEvents":[
		{"name":"m","ph":"M"},
		{"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
		{"name":"a","ph":"E","ts":3,"pid":1,"tid":0}]}`
	if err := ValidateTrace(strings.NewReader(in)); err != nil {
		t.Errorf("balanced B/E rejected: %v", err)
	}
}

func TestJSONLStreamAndDump(t *testing.T) {
	var stream bytes.Buffer
	bw := bufio.NewWriter(&stream)
	tr := New(Config{RingSize: 4})
	tr.Sink = JSONLSink(bw)
	playSession(tr)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// The stream saw every event even though the ring only retains 4.
	gotLines := strings.Count(stream.String(), "\n")
	if uint64(gotLines) != tr.Total() {
		t.Errorf("stream has %d lines, tracer emitted %d", gotLines, tr.Total())
	}
	if !strings.Contains(stream.String(), `"kind":"promote"`) {
		t.Error("stream missing promote event")
	}

	var dump bytes.Buffer
	if err := WriteJSONL(&dump, tr); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(dump.String(), "\n"); n != 4 {
		t.Errorf("dump has %d lines, want 4 (ring capacity)", n)
	}
}

func TestSessionTableRendering(t *testing.T) {
	tr := New(Config{RingSize: 64})
	playSession(tr)
	tr.BeginCycle(160)
	tr.CtlEvent(core.CtlEvent{Kind: core.CtlBuffer, Head: 0x40, Tail: 0x50, Size: 5, BufferedInsts: 17})
	tr.Finalize(170)

	var buf bytes.Buffer
	WriteSessionTable(&buf, tr.Sessions())
	out := buf.String()
	if !strings.Contains(out, "reuse-exit") {
		t.Errorf("table missing reuse-exit reason:\n%s", out)
	}
	if !strings.Contains(out, "run-end") {
		t.Errorf("table missing run-end for finalized open session:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("table has %d lines, want header + 2 sessions", lines)
	}
}

// The duplicate-registration policy is last-wins with a single rendered
// line: re-registering "x" must replace the reader, never render twice
// (a double line would be an invalid Prometheus exposition downstream).
func TestRegistryDuplicateNameLastWins(t *testing.T) {
	r := &Registry{}
	r.CounterVal("x", 1)
	r.CounterVal("x", 2)
	r.Gauge("g", func() float64 { return 0.25 })
	r.Gauge("g", func() float64 { return 0.75 })
	var h1, h2 Histogram
	h1.Observe(1)
	h2.Observe(2)
	h2.Observe(4)
	r.RegisterHistogram("h", &h1)
	r.RegisterHistogram("h", &h2)

	s := r.Snapshot()
	if got := s.Get("x"); got != 2 {
		t.Errorf("x = %d, want 2 (last registration wins)", got)
	}
	if got := s.Get("g.ppm"); got != 750000 {
		t.Errorf("g.ppm = %d, want 750000", got)
	}
	if got := s.Get("h.count"); got != 2 {
		t.Errorf("h.count = %d, want 2 (replacement histogram)", got)
	}
	names := 0
	for _, n := range s.Names() {
		if n == "x" {
			names++
		}
	}
	if names != 1 {
		t.Errorf("counter x rendered %d times, want exactly once", names)
	}

	ts := r.TypedSnapshot()
	if len(ts.Counters) != 1 || ts.Counters[0].Value != 2 {
		t.Errorf("typed snapshot counters = %+v, want single x=2", ts.Counters)
	}
	if len(ts.Gauges) != 1 || ts.Gauges[0].Value != 0.75 {
		t.Errorf("typed snapshot gauges = %+v, want single g=0.75", ts.Gauges)
	}
	if len(ts.Hists) != 1 || ts.Hists[0].Count != 2 {
		t.Errorf("typed snapshot hists = %+v, want single h count=2", ts.Hists)
	}
}

func TestTypedSnapshotHistogramBuckets(t *testing.T) {
	r := &Registry{}
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 700} {
		h.Observe(v)
	}
	r.RegisterHistogram("lat", &h)
	ts := r.TypedSnapshot()
	hp := ts.Hists[0]
	if hp.Count != 4 || hp.Sum != 706 || hp.Max != 700 {
		t.Fatalf("hist point = %+v", hp)
	}
	last := hp.Buckets[len(hp.Buckets)-1]
	if !last.IsInf || last.Count != 4 {
		t.Errorf("final bucket = %+v, want +Inf with full count", last)
	}
	var prev uint64
	for _, b := range hp.Buckets {
		if b.Count < prev {
			t.Errorf("buckets not cumulative: %+v", hp.Buckets)
		}
		prev = b.Count
	}
	// le=1 holds the single value 1; le=2 holds two values.
	if hp.Buckets[0].LE != 1 || hp.Buckets[0].Count != 1 {
		t.Errorf("bucket[0] = %+v, want le=1 count=1", hp.Buckets[0])
	}
	if hp.Buckets[1].LE != 2 || hp.Buckets[1].Count != 2 {
		t.Errorf("bucket[1] = %+v, want le=2 count=2", hp.Buckets[1])
	}
}

func TestMarshalEventMatchesSinkFormat(t *testing.T) {
	e := Event{Cycle: 9, Kind: EvPromote, PC: 0x40, A: 1, B: 2}
	var buf bytes.Buffer
	JSONLSink(&buf)(e)
	if got, want := buf.String(), string(MarshalEvent(e))+"\n"; got != want {
		t.Errorf("sink line %q != MarshalEvent %q", got, want)
	}
	if !strings.Contains(buf.String(), `"kind":"promote"`) {
		t.Errorf("encoded event missing kind: %s", buf.String())
	}
}

func TestSessionTableZeroSessions(t *testing.T) {
	var buf bytes.Buffer
	WriteSessionTable(&buf, nil)
	out := buf.String()
	if !strings.Contains(out, "no reuse sessions") {
		t.Errorf("empty log rendered %q, want explicit no-sessions line", out)
	}
	if strings.Contains(out, "end-reason") {
		t.Errorf("empty log rendered a bare header:\n%s", out)
	}
}

// TestAppendEventCanonical pins the hand-rolled AppendEvent encoder to the
// encoding/json rendering of jsonlEvent it replaced: every kind, every
// omitempty combination, byte for byte. Round-tripping through
// UnmarshalEvent guards against an encoder bug that json would tolerate.
func TestAppendEventCanonical(t *testing.T) {
	ref := func(e Event) []byte {
		je := jsonlEvent{Cycle: e.Cycle, Kind: e.Kind.String(), A: e.A, B: e.B}
		if e.PC != 0 {
			je.PC = fmt.Sprintf("0x%x", e.PC)
		}
		data, err := json.Marshal(je)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var cases []Event
	for k := Kind(1); int(k) < len(kindNames); k++ {
		cases = append(cases,
			Event{Cycle: 0, Kind: k},
			Event{Cycle: 12345, Kind: k, PC: 0x4000cc},
			Event{Cycle: 1 << 40, Kind: k, A: 7},
			Event{Cycle: 99, Kind: k, PC: 0xdeadbeef, A: 1, B: 1 << 33},
			Event{Cycle: 1, Kind: k, B: 42},
		)
	}
	for _, e := range cases {
		got := AppendEvent(nil, e)
		if want := ref(e); !bytes.Equal(got, want) {
			t.Fatalf("AppendEvent(%+v) = %s, want %s", e, got, want)
		}
		back, err := UnmarshalEvent(got)
		if err != nil {
			t.Fatalf("round-trip %s: %v", got, err)
		}
		if back != e {
			t.Fatalf("round-trip %+v → %+v", e, back)
		}
	}
	// Appending to a non-empty prefix must not disturb it.
	pre := AppendEvent([]byte("x"), cases[0])
	if pre[0] != 'x' || !bytes.Equal(pre[1:], AppendEvent(nil, cases[0])) {
		t.Fatalf("AppendEvent clobbered its prefix: %s", pre)
	}
}

// TestUnmarshalEventRejectsUnknownKind: a persisted stream naming a kind this
// build does not know fails with an error. "fast-forward" and "idle-skip"
// were emitted by the retired fast-forward engine, so older recordings can
// still carry them.
func TestUnmarshalEventRejectsUnknownKind(t *testing.T) {
	for _, kind := range []string{"fast-forward", "idle-skip", "", "?"} {
		line := `{"cycle":7,"kind":"` + kind + `","a":3}`
		if e, err := UnmarshalEvent([]byte(line)); err == nil {
			t.Errorf("UnmarshalEvent(%s) = %+v, want error", line, e)
		}
	}
}

// TestHistogramObserveBucketing pins the bit-scan bucketing to the simple
// linear-walk definition it replaced: bucket i is the smallest with
// v <= 1<<i, overflow capped at histBuckets.
func TestHistogramObserveBucketing(t *testing.T) {
	linear := func(v uint64) int {
		i := 0
		for i < histBuckets && v > uint64(1)<<uint(i) {
			i++
		}
		return i
	}
	var vals []uint64
	for k := 0; k < 64; k++ {
		vals = append(vals, uint64(1)<<k-1, uint64(1)<<k, uint64(1)<<k+1)
	}
	vals = append(vals, 0, 3, 5, 7, 100, 1000, ^uint64(0))
	for _, v := range vals {
		var h Histogram
		h.Observe(v)
		want := linear(v)
		for i := range h.buckets {
			if (h.buckets[i] == 1) != (i == want) {
				t.Fatalf("Observe(%d): bucket %d = %d, want count in bucket %d only", v, i, h.buckets[i], want)
			}
		}
	}
}
