package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"reuseiq/internal/altfe"
	"reuseiq/internal/core"
	"reuseiq/internal/experiments"
	"reuseiq/internal/mem"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/telemetry"
)

// A cell is one simulation of the default reusebench report: a kernel in
// one source variant on one machine configuration.
type cell struct {
	Kernel  string
	Variant string // "orig", "dist" (loop-distributed) or "unroll4"
	IQ      int
	Mode    string // "base", "reuse", "single", "filter" or "loopcache"
	NBLT    int    // NBLT entries; the paper's default is 8
}

func (c cell) id() string {
	return fmt.Sprintf("%s/%s/iq%d/%s/nblt%d", c.Kernel, c.Variant, c.IQ, c.Mode, c.NBLT)
}

// config builds the machine configuration exactly as experiments.Suite
// (base, reuse, single), AblationUnroll and CompareFrontEnds do.
func (c cell) config() pipeline.Config {
	cfg := pipeline.BaselineConfig().WithIQSize(c.IQ)
	cfg.Reuse.NBLTSize = c.NBLT
	switch c.Mode {
	case "reuse":
		cfg.Reuse.Enabled = true
	case "single":
		cfg.Reuse.Enabled = true
		cfg.Reuse.Strategy = core.StrategySingle
	case "filter":
		cfg.Mem.L0I = mem.DefaultFilterCache()
	case "loopcache":
		cfg.LoopCache = &altfe.LoopCacheConfig{Entries: 32}
	}
	return cfg
}

// spec returns the experiments.Suite spec of a cell the suite caches; the
// unrolled and front-end cells bypass the suite.
func (c cell) spec() (experiments.Spec, bool) {
	sp := experiments.Spec{Kernel: c.Kernel, IQSize: c.IQ, Distributed: c.Variant == "dist", NBLTSize: c.NBLT}
	switch {
	case c.Variant == "unroll4" || c.Mode == "filter" || c.Mode == "loopcache":
		return sp, false
	case c.Mode == "single":
		sp.Reuse, sp.Strategy = true, core.StrategySingle
	case c.Mode == "reuse":
		sp.Reuse = true
	}
	return sp, true
}

// smallIQCells lists every IQ-32 and IQ-64 cell of the default report, each
// distinct configuration once: Figures 5-8, Figure 9's loop-distributed
// cells, ablations A1 (NBLT off), A2 (single-iteration buffering), the NBLT
// size sweep, A3 (software unrolling) and the prior-art front ends.
func smallIQCells() []cell {
	var cs []cell
	for _, k := range experiments.KernelNames() {
		for _, iq := range []int{32, 64} {
			cs = append(cs, cell{k, "orig", iq, "base", 8}, cell{k, "orig", iq, "reuse", 8})
		}
		cs = append(cs,
			cell{k, "dist", 64, "base", 8}, cell{k, "dist", 64, "reuse", 8},
			cell{k, "orig", 64, "single", 8})
		for _, nblt := range []int{0, 2, 4, 16} {
			cs = append(cs, cell{k, "orig", 64, "reuse", nblt})
		}
		cs = append(cs,
			cell{k, "unroll4", 64, "base", 8}, cell{k, "unroll4", 64, "reuse", 8},
			cell{k, "orig", 64, "filter", 8}, cell{k, "orig", 64, "loopcache", 8})
	}
	return cs
}

// largeIQCells lists the IQ-128 and IQ-256 cells of Figures 5-8.
func largeIQCells() []cell {
	var cs []cell
	for _, k := range experiments.KernelNames() {
		for _, iq := range []int{128, 256} {
			cs = append(cs, cell{k, "orig", iq, "base", 8}, cell{k, "orig", iq, "reuse", 8})
		}
	}
	return cs
}

// figure5Cells lists Figure 5's cells at one IQ size, in the suite's order.
func figure5Cells(iq int) []cell {
	var cs []cell
	for _, k := range experiments.KernelNames() {
		cs = append(cs, cell{k, "orig", iq, "base", 8}, cell{k, "orig", iq, "reuse", 8})
	}
	return cs
}

// modeledNames are the modeled counters reported per layer. They are the
// denominators of per-unit host cost and must not move under a change that
// only speeds up the simulator.
var modeledNames = []string{
	"sim.cycles", "sim.commits", "sim.gated_cycles", "fetch.insts",
	"rename.front", "rename.reuse", "iq.issue_reads", "iq.wakeup_broadcasts",
	"lsq.searches", "dl1.accesses", "dl1.misses", "bpred.lookups", "reuse.revokes",
}

// outcome is the modeled output of one cell.
type outcome struct {
	// Counters digests every counter of Machine.RegisterMetrics plus the
	// power report; Result digests what experiments.RunResult keeps, so a
	// suite cell can be checked against the same pin as a direct run.
	Counters string            `json:"counters"`
	Result   string            `json:"result"`
	Counts   map[string]uint64 `json:"counts"`
}

func digestCounters(ms *telemetry.MetricsSnapshot, rep power.Report) string {
	h := fnv.New64a()
	for _, c := range ms.Counters {
		fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
	}
	for _, e := range rep.Energy {
		fmt.Fprintf(h, "%x\n", math.Float64bits(e))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestResult(cycles, commits uint64, gated float64, rep power.Report, st core.Stats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %x %d %d %+v\n", cycles, commits, math.Float64bits(gated), rep.Cycles, rep.Commits, st)
	for _, e := range rep.Energy {
		fmt.Fprintf(h, "%x\n", math.Float64bits(e))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func outcomeOf(m *pipeline.Machine, rep power.Report) outcome {
	reg := &telemetry.Registry{}
	m.RegisterMetrics(reg)
	ms := reg.TypedSnapshot()
	o := outcome{
		Counters: digestCounters(ms, rep),
		Result:   digestResult(m.C.Cycles, m.C.Commits, m.GatedFraction(), rep, m.Ctl.S),
		Counts:   map[string]uint64{},
	}
	for _, c := range ms.Counters {
		if isModeled(c.Name) {
			o.Counts[c.Name] = c.Value
		}
	}
	return o
}

func isModeled(name string) bool {
	for _, n := range modeledNames {
		if n == name {
			return true
		}
	}
	return false
}

//go:embed expected
var expectedFS embed.FS

// pins maps a cell id to its expected outcome, generated from a reference
// commit with -pin.
type pins map[string]outcome

func loadPins() (pins, error) {
	data, err := expectedFS.ReadFile("expected/cells.json")
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("expected/cells.json: %w", err)
	}
	return p, nil
}

func expectedText(name string) (string, error) {
	data, err := expectedFS.ReadFile("expected/" + name)
	return string(data), err
}

// check compares a direct run's outcome with the pin; it returns a reason
// when the cell fails.
func (p pins) check(c cell, o outcome) string {
	want, ok := p[c.id()]
	switch {
	case !ok:
		return "no pinned outcome"
	case want.Counters != o.Counters:
		return fmt.Sprintf("counter digest %s, pinned %s", o.Counters, want.Counters)
	}
	return ""
}

// checkResult compares a suite cell's result digest with the pin.
func (p pins) checkResult(c cell, digest string) string {
	want, ok := p[c.id()]
	switch {
	case !ok:
		return "no pinned outcome"
	case want.Result != digest:
		return fmt.Sprintf("result digest %s, pinned %s", digest, want.Result)
	}
	return ""
}
