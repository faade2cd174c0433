package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"reuseiq/internal/compiler"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/prog"
	"reuseiq/internal/workloads"
)

// direct is a serial workload run through the path reusesim drives:
// compiler.Compile, pipeline.New, Machine.Run, power.Analyze.
type direct struct {
	cells []cell
	pins  pins
}

func (d *direct) cellList() []cell { return d.cells }

func (d *direct) workers() int { return 1 }

// setup compiles and loop-distributes (or unrolls) every kernel the
// workload uses.
func (d *direct) setup(tr *tracer, _ string) (instance, error) {
	progs, err := compileAll(d.cells, tr)
	if err != nil {
		return nil, err
	}
	return &directPass{d: d, progs: progs}, nil
}

func progKey(c cell) string { return c.Kernel + "/" + c.Variant }

func compileAll(cells []cell, tr *tracer) (map[string]*prog.Program, error) {
	progs := map[string]*prog.Program{}
	for _, c := range cells {
		key := progKey(c)
		if _, ok := progs[key]; ok {
			continue
		}
		k, ok := workloads.ByName(c.Kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", c.Kernel)
		}
		ir := k.Prog
		switch c.Variant {
		case "dist":
			sp := tr.begin("compiler.Distribute", key, 0)
			ir = compiler.Distribute(ir)
			tr.end(sp)
		case "unroll4":
			sp := tr.begin("compiler.Unroll", key, 0)
			ir = compiler.Unroll(ir, 4)
			tr.end(sp)
		}
		sp := tr.begin("compiler.Compile", key, 0)
		p, _, err := compiler.Compile(ir)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", key, err)
		}
		progs[key] = p
	}
	return progs, nil
}

type directPass struct {
	d     *direct
	progs map[string]*prog.Program
	// outcomes holds the last pass's outcome per cell id.
	outcomes map[string]outcome
}

func (p *directPass) close() error { return nil }

func (p *directPass) run(rng *rand.Rand, tr *tracer) (tally, error) {
	var t tally
	p.outcomes = map[string]outcome{}
	for _, i := range rng.Perm(len(p.d.cells)) {
		c := p.d.cells[i]
		t.attempted++
		o, err := runCell(c, p.progs[progKey(c)], tr)
		if err == nil {
			if why := p.d.pins.check(c, o); why != "" {
				err = fmt.Errorf("%s", why)
			}
		}
		if err != nil {
			t.fail(c.id(), err)
			continue
		}
		p.outcomes[c.id()] = o
		tr.addCounts(o.Counts)
	}
	return t, nil
}

// runCell simulates one cell. With a tracer it records the cell's spans;
// with a step tracer it attributes the run's cycles by driving Step.
func runCell(c cell, p *prog.Program, tr *tracer) (outcome, error) {
	id := c.id()
	root := tr.begin("cell", id, 0)
	defer tr.end(root)

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp := tr.begin("pipeline.New", id, root)
	m := pipeline.New(c.config(), p)
	tr.end(sp)
	if tr != nil {
		runtime.ReadMemStats(&after)
		tr.newAllocs = append(tr.newAllocs, after.Mallocs-before.Mallocs)
	}
	defer m.Release()

	var err error
	sp = tr.begin("pipeline.Machine.Run", id, root)
	if tr != nil && tr.traced {
		err = tr.drive(m)
	} else {
		err = m.Run()
	}
	if d := tr.end(sp); tr != nil {
		start := tr.spans[sp-1].Start
		tr.cells = append(tr.cells, cellTime{Cell: id, IQ: c.IQ, Start: start, NS: int64(d), Cycles: m.C.Cycles})
	}
	if err != nil {
		return outcome{}, err
	}
	sp = tr.begin("power.Analyze", id, root)
	rep := power.Analyze(m)
	tr.end(sp)
	return outcomeOf(m, rep), nil
}

// tally counts the cells a pass attempted and the ones that failed.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(what string, err error) {
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// check counts a workload-level check as one attempted operation.
func (t *tally) check(what string, ok bool, detail string) {
	t.attempted++
	if !ok {
		t.fail(what, fmt.Errorf("%s", detail))
	}
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
