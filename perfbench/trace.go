package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"reuseiq/internal/pipeline"
)

// A span is one timed call into a layer. Spans of one cell share its id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// stepAgg sums the step spans of one (RIQ state, LSQ-occupancy bucket) key.
type stepAgg struct {
	Spans  uint64 `json:"spans"`
	Cycles uint64 `json:"cycles"`
	NS     int64  `json:"ns"`
}

// cellTime is the host time of one simulated cell.
type cellTime struct {
	Cell   string `json:"cell"`
	IQ     int    `json:"iq"`
	Start  int64  `json:"start_ns"` // since the tracer started
	NS     int64  `json:"ns"`
	Cycles uint64 `json:"cycles"`
}

// tracer records one pass. Its methods are no-ops on a nil tracer, which is
// how a pass runs with tracing off. Everything stays in memory until write.
type tracer struct {
	// traced marks pass B: Step-level cycle attribution on the direct path,
	// a run ledger on the suite path.
	traced bool
	t0     time.Time
	spans  []span
	agg    [3][3]stepAgg // [core.State][LSQ bucket]
	cells  []cellTime
	// busy is host time of serial work outside any cell in cells.
	busy time.Duration
	// newAllocs holds runtime.MemStats.Mallocs deltas of pipeline.New.
	newAllocs []uint64
	counts    map[string]uint64 // modeled counters summed over the pass
	metrics   map[string]float64
}

func newTracer(traced bool) *tracer {
	return &tracer{traced: traced, t0: time.Now(), counts: map[string]uint64{}, metrics: map[string]float64{}}
}

func (t *tracer) begin(name, cell string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.dur()
}

func (t *tracer) addCounts(counts map[string]uint64) {
	if t == nil {
		return
	}
	for n, v := range counts {
		t.counts[n] += v
	}
}

func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.metrics[name] = v
	}
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.dur()))
		}
	}
	return ds
}

// lsqBucket keys LSQ occupancy. The LSQ holds IQ/2 entries, so IQ-32 and
// IQ-64 cells never reach the top bucket.
func lsqBucket(n int) int {
	switch {
	case n < 16:
		return 0
	case n < 64:
		return 1
	}
	return 2
}

// maxSpanCycles closes a step span that has run this long under one key.
const maxSpanCycles = 4096

// drive runs m to completion with Machine.Step, reproducing Run's stop
// conditions (halt, cycle budget, watchdog), and attributes host time to
// the (RIQ state, LSQ-occupancy bucket) key at the start of each cycle.
// The clock is read only when the key changes or a span reaches
// maxSpanCycles: timing every ~400 ns Step would distort what it measures.
func (t *tracer) drive(m *pipeline.Machine) error {
	commits, lastCommit := m.C.Commits, m.Cycle()
	st, b := int(m.Ctl.State()), lsqBucket(m.LSQ.Len())
	start, n := time.Now(), uint64(0)
	flush := func(now time.Time) {
		a := &t.agg[st][b]
		a.Spans++
		a.Cycles += n
		a.NS += now.Sub(start).Nanoseconds()
	}
	var err error
	for !m.Halted() {
		m.Step()
		n++
		if m.C.Commits != commits || m.Halted() {
			commits, lastCommit = m.C.Commits, m.Cycle()
		}
		if m.Cycle() >= m.Cfg.MaxCycles {
			err = fmt.Errorf("cycle budget %d exhausted (%d committed)", m.Cfg.MaxCycles, m.C.Commits)
			break
		}
		if m.Cycle()-lastCommit > m.Cfg.WatchdogCycles {
			err = fmt.Errorf("no commit for %d cycles at cycle %d (%s)", m.Cfg.WatchdogCycles, m.Cycle(), m.StateSummary())
			break
		}
		ns, nb := int(m.Ctl.State()), lsqBucket(m.LSQ.Len())
		if ns != st || nb != b || n == maxSpanCycles {
			now := time.Now()
			flush(now)
			st, b, start, n = ns, nb, now, 0
		}
	}
	if n > 0 {
		flush(time.Now())
	}
	return err
}

// write saves the spans, cell times and step aggregates as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range t.cells {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	for st := range t.agg {
		for b := range t.agg[st] {
			if t.agg[st][b].Spans == 0 {
				continue
			}
			rec := struct {
				State  int `json:"riq_state"`
				Bucket int `json:"lsq_bucket"`
				stepAgg
			}{st, b, t.agg[st][b]}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
