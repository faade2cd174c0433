// Command perfbench is the repository benchmark. It runs one workload
// through the entry points users drive (the reusesim path or
// experiments.Suite as reusebench uses it), checks every simulated result
// against output pinned in expected/, and prints one JSON result line.
//
//	perfbench --workload small-iq --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (wall_s, setup_s,
// peak_rss_mb); with --trace 1 it runs one untraced and one traced pass and
// reports the per-layer metrics. -pin regenerates expected/cells.json.
// Run it through run.sh from the repository root; README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reuseiq/internal/pipeline"
	"reuseiq/internal/snapshot"
)

// A workload is one set of cells run through one user path.
type workload interface {
	// setup prepares one pass under dir; its duration is a setup_s sample.
	setup(tr *tracer, dir string) (instance, error)
	// workers is how many simulations run at once.
	workers() int
	cellList() []cell
}

// An instance is a workload set up for one pass.
type instance interface {
	// run executes the workload once, visiting cells in an order drawn from
	// rng, and checks every result.
	run(rng *rand.Rand, tr *tracer) (tally, error)
	close() error
}

var workloadNames = []string{"small-iq", "large-iq", "paper-figures", "durable-sweep"}

func newWorkload(name string, p pins) (workload, error) {
	switch name {
	case "small-iq":
		return &direct{cells: smallIQCells(), pins: p}, nil
	case "large-iq":
		return &direct{cells: largeIQCells(), pins: p}, nil
	case "paper-figures":
		return newReport(p)
	case "durable-sweep":
		return newDurable(p)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// A run sets up at least setupReps times and for at least setupMin before
// its first pass, and again after its last, so setup_s is a median of many
// samples taken at both ends of the run even when one pass fills it or
// set-up takes microseconds.
const (
	setupReps = 5
	setupMin  = 100 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

func mainImpl(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed for the order in which serial workloads visit their cells")
	seconds := fs.Int("seconds", 20, "measure passes until this many seconds would be exceeded (at least one pass)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced pass")
	pin := fs.String("pin", "", "regenerate the pinned cell outcomes into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *pin != "" {
		if err := writePins(*pin); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	p, err := loadPins()
	var w workload
	if err == nil {
		w, err = newWorkload(*name, p)
	}
	var res *result
	if err == nil {
		res, err = runWorkload(w, *name, *seed, *seconds, *trace == 1, stderr)
	}
	var data []byte
	if err == nil {
		data, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// runWorkload measures one workload under a scratch directory of its own in
// .bench_build, removed on return.
func runWorkload(w workload, name string, seed uint64, seconds int, traced bool, stderr io.Writer) (*result, error) {
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	var res *result
	var t tally
	var err error
	if traced {
		res, t, err = measureLayers(w, name, seed, work)
	} else {
		res, t, err = measure(w, seed, seconds, work)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range t.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// measure samples setups, then runs passes, each after a fresh setup, while
// the next pass is expected to end within seconds, then samples setups
// again. It reports the median pass wall time and the median setup time.
// Setups and passes start right after a garbage collection, so a collection
// the previous pass or setup left due does not land in their time or peak.
func measure(w workload, seed uint64, seconds int, work string) (*result, tally, error) {
	var total tally
	var setups, walls []float64
	var inst instance
	setup := func() error {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(nil, filepath.Join(work, fmt.Sprintf("pass%d", len(setups))))
		setups = append(setups, since(t0))
		inst = in
		return err
	}
	sample := func() error {
		for n, t0 := 0, time.Now(); n < setupReps || time.Since(t0) < setupMin; n++ {
			if err := setup(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sample(); err != nil {
		return nil, total, err
	}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for pass := uint64(0); ; pass++ {
		runtime.GC()
		t0 := time.Now()
		t, err := inst.run(rand.New(rand.NewPCG(seed, pass)), nil)
		walls = append(walls, since(t0))
		total.merge(t)
		if err != nil {
			return nil, total, err
		}
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > budget {
			break
		}
		if err := setup(); err != nil {
			return nil, total, err
		}
	}
	if err := sample(); err != nil {
		return nil, total, err
	}
	if err := inst.close(); err != nil {
		return nil, total, err
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, total, err
	}
	return &result{Metrics: map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MB"},
	}}, total, nil
}

// peakRSS returns the process's peak resident set in MiB, from VmHWM. It
// does not use getrusage: its ru_maxrss survives fork and exec, so it
// reports the launching process's peak when that is larger.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 10 {
			t.errs = append(t.errs, e)
		}
	}
}

// layerUnits names every per-layer metric with its unit. A metric whose
// layer the workload does not exercise, or cannot separate from outside
// it, reads 0.
var layerUnits = map[string]string{
	"compiler.compile_ms":         "ms",
	"pipeline.new_us":             "us",
	"pipeline.new_allocs":         "count",
	"pipeline.ns_per_cycle":       "ns",
	"pipeline.ns_per_cycle.iq32":  "ns",
	"pipeline.ns_per_cycle.iq64":  "ns",
	"pipeline.ns_per_cycle.iq128": "ns",
	"pipeline.ns_per_cycle.iq256": "ns",
	"core.ns_per_cycle.normal":    "ns",
	"core.ns_per_cycle.buffering": "ns",
	"core.ns_per_cycle.reuse":     "ns",
	"lsq.ns_per_cycle.occ_lt16":   "ns",
	"lsq.ns_per_cycle.occ_16_63":  "ns",
	"lsq.ns_per_cycle.occ_ge64":   "ns",
	"power.analyze_us":            "us",
	"experiments.parallel_eff":    "ratio",
	"experiments.worker_idle_s":   "s",
	"experiments.critical_path_s": "s",
	"experiments.render_ms":       "ms",
	"journal.overhead_s":          "s",
	"runstore.overhead_s":         "s",
	"flightrec.overhead_s":        "s",
	"snapshot.save_us":            "us",
	"snapshot.bytes":              "B",
	"snapshot.saves":              "count",
	"journal.records":             "count",
	"journal.bytes":               "B",
	"runstore.records":            "count",
	"runstore.bytes":              "B",
	"journal.resume_ms":           "ms",
	"runstore.load_ms":            "ms",
	"runstore.sentinel_ms":        "ms",
	"runtime.mallocs_per_mcycle":  "count",
	"runtime.alloc_mb":            "MB",
	"runtime.gc_cycles":           "count",
	"trace.overhead_frac":         "ratio",
	"sim.cycles":                  "count",
	"sim.commits":                 "count",
	"sim.gated_cycles":            "count",
	"fetch.insts":                 "count",
	"rename.front":                "count",
	"rename.reuse":                "count",
	"iq.issue_reads":              "count",
	"iq.wakeup_broadcasts":        "count",
	"lsq.searches":                "count",
	"dl1.accesses":                "count",
	"dl1.misses":                  "count",
	"bpred.lookups":               "count",
	"reuse.revokes":               "count",
}

// measureLayers runs an untraced pass (pass A: cell-level spans only, a
// few clock reads per cell) and a traced pass (pass B: Step-level
// attribution, and a run ledger on Suite workloads) in another cell order,
// requires both to produce the same modeled counts, and derives the
// per-layer metrics.
func measureLayers(w workload, name string, seed uint64, work string) (*result, tally, error) {
	var total tally
	trA, trB := newTracer(false), newTracer(true)
	inst, err := w.setup(trA, filepath.Join(work, "a"))
	if err != nil {
		return nil, total, err
	}
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	saves0, _ := snapshot.Counters()
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, total, err
	}
	t0 := time.Now()
	t, err := inst.run(rand.New(rand.NewPCG(seed, 0)), trA)
	wallA := time.Since(t0)
	if err == nil {
		err = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	}
	runtime.ReadMemStats(&ms1)
	saves1, _ := snapshot.Counters()
	total.merge(t)
	if err == nil {
		err = inst.close()
	}
	if err != nil {
		return nil, total, err
	}

	if inst, err = w.setup(nil, filepath.Join(work, "b")); err != nil {
		return nil, total, err
	}
	t0 = time.Now()
	t, err = inst.run(rand.New(rand.NewPCG(seed+1, 0)), trB)
	wallB := time.Since(t0)
	total.merge(t)
	if err == nil {
		err = inst.close()
	}
	if err != nil {
		return nil, total, err
	}
	total.check("traced counts equal untraced", equalCounts(trA.counts, trB.counts),
		fmt.Sprintf("untraced %v, traced %v", trA.counts, trB.counts))
	if d, ok := w.(*durable); ok {
		if err := d.logOverheads(filepath.Join(work, "overhead"), trB); err != nil {
			return nil, total, err
		}
	}
	saveUS, saveBytes, err := probeSnapshot(w.cellList()[0])
	if err != nil {
		return nil, total, err
	}

	m := map[string]float64{}
	for n := range layerUnits {
		m[n] = 0
	}
	for _, tr := range []*tracer{trB, trA} { // pass A wins where both set a value
		for n, v := range tr.metrics {
			m[n] = v
		}
	}
	var compile float64
	for _, n := range []string{"compiler.Compile", "compiler.Distribute", "compiler.Unroll"} {
		compile += sum(trA.durations(n))
	}
	m["compiler.compile_ms"] = compile / 1e6
	m["pipeline.new_us"] = median(trA.durations("pipeline.New")) / 1e3
	allocs := make([]float64, len(trA.newAllocs))
	for i, a := range trA.newAllocs {
		allocs[i] = float64(a)
	}
	m["pipeline.new_allocs"] = median(allocs)
	m["power.analyze_us"] = median(trA.durations("power.Analyze")) / 1e3
	var render float64
	for _, s := range trA.spans {
		if strings.HasPrefix(s.Name, "render.") {
			render += float64(s.dur())
		}
	}
	m["experiments.render_ms"] = render / 1e6

	// Cell times come from pass A's spans, or from pass B's run ledger.
	cellTr, wall := trA, wallA
	if len(cellTr.cells) == 0 {
		cellTr, wall = trB, wallB
	}
	m["pipeline.ns_per_cycle"] = nsPerCycle(cellTr.cells, 0)
	for _, iq := range []int{32, 64, 128, 256} {
		m[fmt.Sprintf("pipeline.ns_per_cycle.iq%d", iq)] = nsPerCycle(cellTr.cells, iq)
	}
	busy, longest := cellTr.busy, int64(0)
	for _, c := range cellTr.cells {
		busy += time.Duration(c.NS)
		longest = max(longest, c.NS)
	}
	workers := float64(w.workers())
	m["experiments.worker_idle_s"] = workers*wall.Seconds() - busy.Seconds()
	m["experiments.critical_path_s"] = float64(longest) / 1e9
	cpu := func(ru syscall.Rusage) time.Duration {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m["experiments.parallel_eff"] = (cpu(ru1) - cpu(ru0)).Seconds() / (wallA.Seconds() * workers)

	for st, key := range []string{"normal", "buffering", "reuse"} {
		var a stepAgg
		for b := range trB.agg[st] {
			a.add(trB.agg[st][b])
		}
		m["core.ns_per_cycle."+key] = a.nsPerCycle()
	}
	for b, key := range []string{"occ_lt16", "occ_16_63", "occ_ge64"} {
		var a stepAgg
		for st := range trB.agg {
			a.add(trB.agg[st][b])
		}
		m["lsq.ns_per_cycle."+key] = a.nsPerCycle()
	}

	m["snapshot.save_us"] = saveUS
	m["snapshot.bytes"] = saveBytes
	m["snapshot.saves"] = float64(saves1 - saves0)
	if cycles := trA.counts["sim.cycles"]; cycles > 0 {
		m["runtime.mallocs_per_mcycle"] = float64(ms1.Mallocs-ms0.Mallocs) / (float64(cycles) / 1e6)
	}
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	for _, n := range modeledNames {
		m[n] = float64(trB.counts[n])
	}
	m["trace.overhead_frac"] = wallB.Seconds()/wallA.Seconds() - 1

	for pass, tr := range map[string]*tracer{"untraced": trA, "traced": trB} {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d-%s.jsonl", name, seed, pass))
		if err := tr.write(path); err != nil {
			return nil, total, err
		}
	}
	res := &result{Metrics: map[string]metric{}}
	for n, v := range m {
		res.Metrics[n] = metric{v, layerUnits[n]}
	}
	return res, total, nil
}

func (a *stepAgg) add(o stepAgg) {
	a.Spans += o.Spans
	a.Cycles += o.Cycles
	a.NS += o.NS
}

func (a stepAgg) nsPerCycle() float64 {
	if a.Cycles == 0 {
		return 0
	}
	return float64(a.NS) / float64(a.Cycles)
}

// nsPerCycle is host time per simulated cycle over the cells at one IQ size
// (all cells when iq is 0).
func nsPerCycle(cells []cellTime, iq int) float64 {
	var a stepAgg
	for _, c := range cells {
		if iq == 0 || c.IQ == iq {
			a.add(stepAgg{Cycles: c.Cycles, NS: c.NS})
		}
	}
	return a.nsPerCycle()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func equalCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for n, v := range a {
		if b[n] != v {
			return false
		}
	}
	return true
}

// probeCycle is where probeSnapshot stops a machine to save it.
const probeCycle = 20_000

// probeSnapshot stops c's machine at probeCycle and times snapshot.Save of
// it, returning the median save time in µs and the image size in bytes.
func probeSnapshot(c cell) (float64, float64, error) {
	progs, err := compileAll([]cell{c}, nil)
	if err != nil {
		return 0, 0, err
	}
	m := pipeline.New(c.config(), progs[progKey(c)])
	defer m.Release()
	if err := m.RunBreakable(probeCycle, func() bool { return true }); err != nil && !errors.Is(err, pipeline.ErrStopped) {
		return 0, 0, err
	}
	var ds []float64
	var cw countingWriter
	for i := 0; i < 9; i++ {
		cw = 0
		t0 := time.Now()
		if err := snapshot.Save(&cw, m); err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return median(ds) / 1e3, float64(cw), nil
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// writePins runs every small-iq and large-iq cell once, in canonical order,
// and writes their outcomes as the pinned expectation.
func writePins(path string) error {
	cs := append(smallIQCells(), largeIQCells()...)
	progs, err := compileAll(cs, nil)
	if err != nil {
		return err
	}
	p := pins{}
	for _, c := range cs {
		o, err := runCell(c, progs[progKey(c)], nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c.id(), err)
		}
		p[c.id()] = o
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
