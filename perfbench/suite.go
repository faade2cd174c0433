package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"reuseiq/internal/core"
	"reuseiq/internal/experiments"
	"reuseiq/internal/runstore"
)

// report is the full default reusebench report generated through
// experiments.Suite with one worker per CPU, as reusebench runs it.
type report struct {
	sections []section
	cells    []cell // cells the suite caches
	pins     pins
	text     string
}

func newReport(p pins) (*report, error) {
	text, err := expectedText("paper-figures.txt")
	if err != nil {
		return nil, err
	}
	r := &report{sections: reportSections, pins: p, text: text}
	for _, c := range append(smallIQCells(), largeIQCells()...) {
		if _, ok := c.spec(); ok {
			r.cells = append(r.cells, c)
		}
	}
	return r, nil
}

func (r *report) cellList() []cell { return r.cells }

func (r *report) workers() int { return runtime.GOMAXPROCS(0) }

func (r *report) setup(_ *tracer, dir string) (instance, error) {
	return &reportPass{r: r, s: experiments.NewSuite(), dir: dir}, nil
}

type reportPass struct {
	r   *report
	s   *experiments.Suite
	dir string
}

func (p *reportPass) close() error { return os.RemoveAll(p.dir) }

// run renders the report; the suite fixes the cell order, so rng is unused.
// The traced pass attaches a run ledger, whose records give each cell's
// host time and modeled counters.
func (p *reportPass) run(_ *rand.Rand, tr *tracer) (tally, error) {
	var t tally
	var led *runstore.Ledger
	if tr != nil && tr.traced {
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return t, err
		}
		var err error
		if led, err = p.s.AttachLedger(filepath.Join(p.dir, "ledger.jsonl")); err != nil {
			return t, err
		}
		defer led.Close()
	}
	text, err := p.r.render(p.s, tr)
	if err != nil {
		return t, err
	}
	t.check("report text", text == p.r.text, firstDiff(text, p.r.text))
	for _, c := range p.r.cells {
		sp, _ := c.spec()
		t.attempted++
		res, err := p.s.Run(sp)
		if err == nil && res.Failed() {
			err = res.Err
		}
		if err == nil {
			if why := p.r.pins.checkResult(c, digestResult(res.Cycles, res.Commits, res.Gated, res.Power, res.Core)); why != "" {
				err = errors.New(why)
			}
		}
		if err != nil {
			t.fail(c.id(), err)
			continue
		}
		if led == nil {
			tr.addCounts(p.r.pins[c.id()].Counts)
		}
	}
	if led != nil {
		ledgerLayers(led.Records(), tr)
	}
	return t, nil
}

// ledgerLayers takes each cell's host time and modeled counters from its
// run-ledger record.
func ledgerLayers(recs []runstore.Record, tr *tracer) {
	if tr == nil {
		return
	}
	for _, rec := range recs {
		c := cell{Kernel: rec.Kernel, Variant: "orig", IQ: rec.IQSize, Mode: "base", NBLT: rec.NBLTSize}
		if rec.Distributed {
			c.Variant = "dist"
		}
		switch {
		case rec.Strategy == int(core.StrategySingle):
			c.Mode = "single"
		case rec.Reuse:
			c.Mode = "reuse"
		}
		// Suite.Run stamps the record when the cell ends.
		start := rec.Start.Add(-time.Duration(rec.Host.WallNS))
		tr.cells = append(tr.cells, cellTime{Cell: c.id(), IQ: rec.IQSize, Start: start.Sub(tr.t0).Nanoseconds(),
			NS: rec.Host.WallNS, Cycles: rec.Cycles})
		counts := map[string]uint64{}
		for _, name := range modeledNames {
			if v, ok := rec.Metrics.Counter(name); ok {
				counts[name] = v
			}
		}
		tr.addCounts(counts)
	}
}

type stringer interface{ String() string }

// A section is one table or figure of the report.
type section struct {
	name   string
	serial bool // runs its simulations outside the suite, one at a time
	build  func(*experiments.Suite) (stringer, error)
}

// reportSections is what cmd/reusebench prints with no flags.
var reportSections = []section{
	{"table1", false, func(*experiments.Suite) (stringer, error) { return textStringer(experiments.Table1()), nil }},
	{"table2", false, func(*experiments.Suite) (stringer, error) { return textStringer(experiments.Table2()), nil }},
	{"figure5", false, func(s *experiments.Suite) (stringer, error) { return s.Figure5(experiments.DefaultSizes) }},
	{"figure6", false, func(s *experiments.Suite) (stringer, error) { return s.Figure6(experiments.DefaultSizes) }},
	{"figure7", false, func(s *experiments.Suite) (stringer, error) { return s.Figure7(experiments.DefaultSizes) }},
	{"figure8", false, func(s *experiments.Suite) (stringer, error) { return s.Figure8(experiments.DefaultSizes) }},
	{"figure9", false, func(s *experiments.Suite) (stringer, error) { return s.Figure9() }},
	{"ablation_nblt", false, func(s *experiments.Suite) (stringer, error) { return s.AblationNBLT() }},
	{"ablation_strategy", false, func(s *experiments.Suite) (stringer, error) { return s.AblationStrategy() }},
	{"ablation_nbltsweep", false, func(s *experiments.Suite) (stringer, error) { return s.SweepNBLTSizes([]int{0, 2, 4, 8, 16}) }},
	{"ablation_unroll", true, func(s *experiments.Suite) (stringer, error) { return s.AblationUnroll(4) }},
	{"extension_frontends", true, func(s *experiments.Suite) (stringer, error) { return s.CompareFrontEnds() }},
}

// render produces the report text, each section followed by a blank line
// as reusebench prints it, without reusebench's "(completed in ...)" line.
func (r *report) render(s *experiments.Suite, tr *tracer) (string, error) {
	var b strings.Builder
	for _, sec := range r.sections {
		sp := tr.begin("experiments."+sec.name, "", 0)
		t0 := time.Now()
		v, err := sec.build(s)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return "", fmt.Errorf("%s: %w", sec.name, err)
		}
		if sec.serial && tr != nil {
			tr.busy += d
		}
		sp = tr.begin("render."+sec.name, "", 0)
		b.WriteString(v.String())
		tr.end(sp)
		b.WriteString("\n")
	}
	return b.String(), nil
}

type textStringer string

func (s textStringer) String() string { return string(s) }

// firstDiff describes where got first departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, pinned %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, pinned %d", len(g), len(w))
}

// durable is Figure 5 at IQ 32 through experiments.Suite, one cell at a
// time, with the run ledger, the write-ahead journal (mid-cell checkpoints
// every 20 000 cycles) and the flight recorder attached; then a resume pass
// over the finished journal and a ledger load plus regression sentinel.
type durable struct {
	cells []cell
	pins  pins
	text  string
}

const ckptEvery = 20_000

func newDurable(p pins) (*durable, error) {
	text, err := expectedText("durable-sweep.txt")
	if err != nil {
		return nil, err
	}
	return &durable{cells: figure5Cells(32), pins: p, text: text}, nil
}

func (d *durable) cellList() []cell { return d.cells }

func (d *durable) workers() int { return 1 }

func (d *durable) setup(_ *tracer, dir string) (instance, error) {
	s, led, j, err := newDurableSuite(dir, true, true, true)
	if err != nil {
		return nil, err
	}
	return &durablePass{d: d, s: s, led: led, j: j, dir: dir}, nil
}

// newDurableSuite builds a serial suite under dir with the chosen durable
// logs attached.
func newDurableSuite(dir string, ledger, journal, flightrec bool) (*experiments.Suite, *runstore.Ledger, *experiments.Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	s := experiments.NewSuite()
	s.Parallelism = 1
	var led *runstore.Ledger
	var j *experiments.Journal
	var err error
	if ledger {
		if led, err = s.AttachLedger(filepath.Join(dir, "ledger.jsonl")); err != nil {
			return nil, nil, nil, err
		}
	}
	if journal {
		if j, _, err = s.AttachJournal(filepath.Join(dir, "journal.jsonl"), false); err != nil {
			if led != nil {
				led.Close()
			}
			return nil, nil, nil, err
		}
		j.CheckpointEvery = ckptEvery
	}
	if flightrec {
		s.FlightRecDir = filepath.Join(dir, "flightrec")
	}
	return s, led, j, nil
}

type durablePass struct {
	d   *durable
	s   *experiments.Suite
	led *runstore.Ledger
	j   *experiments.Journal
	dir string
}

func (p *durablePass) close() error {
	closeLogs(p.led, p.j)
	return os.RemoveAll(p.dir)
}

// closeLogs closes whichever durable logs are attached; their errors were
// already reported by the writes the sweep checked.
func closeLogs(led *runstore.Ledger, j *experiments.Journal) {
	if led != nil {
		led.Close()
	}
	if j != nil {
		j.Close()
	}
}

func (p *durablePass) run(rng *rand.Rand, tr *tracer) (tally, error) {
	var t tally
	cs := p.d.cells
	sweepCells(p.s, cs, rng.Perm(len(cs)), p.d.pins, tr, &t)
	f, err := p.s.Figure5([]int{32})
	if err != nil {
		return t, err
	}
	sp := tr.begin("render.figure5", "", 0)
	text := f.String()
	tr.end(sp)
	t.check("figure text", text == p.d.text, firstDiff(text, p.d.text))
	jerr, lerr := p.j.Close(), p.led.Close()
	p.j, p.led = nil, nil
	if err := errors.Join(jerr, lerr); err != nil {
		return t, err
	}

	// Resume over the finished journal: every cell must replay from it.
	jpath, lpath := filepath.Join(p.dir, "journal.jsonl"), filepath.Join(p.dir, "ledger.jsonl")
	sp = tr.begin("journal.resume", "", 0)
	s2 := experiments.NewSuite()
	s2.Parallelism = 1
	led2, err := s2.AttachLedger(lpath)
	if err != nil {
		return t, err
	}
	defer led2.Close()
	before := led2.Len()
	j2, recovered, err := s2.AttachJournal(jpath, true)
	if err != nil {
		return t, err
	}
	defer j2.Close()
	f2, err := s2.Figure5([]int{32})
	if err != nil {
		return t, err
	}
	resim := led2.Len() - before
	resumeD := tr.end(sp)
	t.check("resume re-simulates 0 cells", recovered == len(cs) && resim == 0 && f2.String() == p.d.text,
		fmt.Sprintf("recovered %d of %d cells, re-simulated %d", recovered, len(cs), resim))

	sp = tr.begin("runstore.Load", "", 0)
	recs, err := runstore.Load(lpath)
	loadD := tr.end(sp)
	if err != nil {
		return t, err
	}
	sp = tr.begin("runstore.Sentinel", "", 0)
	rep := runstore.Sentinel(recs)
	sentD := tr.end(sp)
	t.check("Sentinel passes", rep.Pass() && len(recs) == len(cs),
		fmt.Sprintf("%d records, %d drifting groups", len(recs), len(rep.Drifts())))

	if tr != nil {
		ledgerLayers(recs, tr)
		tr.set("journal.records", float64(recovered))
		tr.set("journal.bytes", fileSize(jpath))
		tr.set("runstore.records", float64(len(recs)))
		tr.set("runstore.bytes", fileSize(lpath))
		tr.set("journal.resume_ms", ms(resumeD))
		tr.set("runstore.load_ms", ms(loadD))
		tr.set("runstore.sentinel_ms", ms(sentD))
	}
	return t, nil
}

// sweepCells runs cells through s.Run one at a time in the given order,
// checking each result against its pin, and returns the summed Run time.
func sweepCells(s *experiments.Suite, cs []cell, order []int, p pins, tr *tracer, t *tally) time.Duration {
	var total time.Duration
	for _, i := range order {
		c := cs[i]
		sp, _ := c.spec()
		t.attempted++
		span := tr.begin("experiments.Suite.Run", c.id(), 0)
		t0 := time.Now()
		res, err := s.Run(sp)
		total += time.Since(t0)
		tr.end(span)
		if err == nil && res.Failed() {
			err = res.Err
		}
		if err == nil {
			if why := p.checkResult(c, digestResult(res.Cycles, res.Commits, res.Gated, res.Power, res.Core)); why != "" {
				err = errors.New(why)
			}
		}
		if err != nil {
			t.fail(c.id(), err)
		}
	}
	return total
}

// logOverheads times the Figure 5 IQ-32 sweep with no durable log and with
// each log alone; each overhead is the difference of the summed
// Suite.Run times.
func (d *durable) logOverheads(dir string, tr *tracer) error {
	order := make([]int, len(d.cells))
	for i := range order {
		order[i] = i
	}
	variants := []struct {
		name                       string
		ledger, journal, flightrec bool
	}{
		{"none", false, false, false},
		{"journal", false, true, false},
		{"runstore", true, false, false},
		{"flightrec", false, false, true},
	}
	var base time.Duration
	for _, v := range variants {
		vdir := filepath.Join(dir, "overhead-"+v.name)
		s, led, j, err := newDurableSuite(vdir, v.ledger, v.journal, v.flightrec)
		if err != nil {
			return err
		}
		var t tally
		total := sweepCells(s, d.cells, order, d.pins, nil, &t)
		closeLogs(led, j)
		if err := os.RemoveAll(vdir); err != nil {
			return err
		}
		if t.failed > 0 {
			return fmt.Errorf("overhead sweep %s: %v", v.name, t.errs)
		}
		if v.name == "none" {
			base = total
			continue
		}
		tr.set(v.name+".overhead_s", (total - base).Seconds())
	}
	return nil
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
