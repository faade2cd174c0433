// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 3 and 4) plus the ablations called out in DESIGN.md:
//
//	Table 1   baseline processor configuration
//	Table 2   benchmark list
//	Figure 5  % of cycles with the pipeline front-end gated vs IQ size
//	Figure 6  power reduction in icache / bpred / issue queue + overhead
//	Figure 7  overall per-benchmark power reduction vs IQ size
//	Figure 8  IPC degradation vs IQ size
//	Figure 9  overall power reduction, original vs loop-distributed code
//	A1        NBLT ablation (buffering revoke rates)
//	A2        single- vs multi-iteration buffering strategy
//	NBLT      NBLT size sweep (revoke rate and gating vs table entries)
//	A3        software vs hardware loop unrolling
//	X1        reuse issue queue vs filter cache and loop cache
//
// Every section simulates on the suite's worker pool. Runs are cached by
// configuration, so sections sharing the same simulations reuse them (6, 7,
// 8, A3 and X1 share Figure 5's runs).
package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reuseiq/internal/cell"
	"reuseiq/internal/core"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/prog"
	"reuseiq/internal/runstore"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/workloads"
)

// DefaultSizes is the paper's issue-queue size sweep.
var DefaultSizes = []int{32, 64, 128, 256}

// RunResult is the outcome of one simulation.
type RunResult struct {
	// Spec is the normalized cell that ran.
	Spec

	Cycles  uint64
	Commits uint64
	IPC     float64
	Gated   float64 // fraction of cycles with the front end gated

	Power power.Report
	Core  core.Stats

	// Err marks a degraded partial result: the simulation aborted (watchdog
	// deadlock or cycle budget) even after a retry, and the stats above
	// cover only the cycles before the abort. Figures render such cells as
	// "fail" and exclude them from averages.
	Err error
	// Retried reports that the run only completed (or finally failed) after
	// a retry with an enlarged cycle budget.
	Retried bool
	// FlightRec is the post-mortem flight-recording directory left behind
	// for a failed cell when the suite records (Suite.FlightRecDir); open
	// it with reusedbg -dir. Empty for healthy cells — their recordings are
	// deleted on completion.
	FlightRec string
	// RunID is the cell's id in the run ledger (Suite.UseLedger), empty when
	// no ledger records — or when the cell was served from cache (a journal
	// resume rebuilds the cell from its journal record, it does not re-run
	// it, so the ledger gets no new record).
	RunID string
}

// Failed reports whether this is a degraded partial result.
func (r RunResult) Failed() bool { return r.Err != nil }

// Suite runs and caches simulations.
type Suite struct {
	mu       sync.Mutex
	programs map[Spec]*prog.Program // Spec.ProgramID() -> compiled image
	results  map[Spec]RunResult     // normalized Spec -> result
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Sabotage, when non-nil, marks specs that must fail: matching runs get
	// a tiny cycle budget so they deterministically abort. It exists to
	// exercise the degrade-to-partial path end to end (tests and
	// cmd/reusebench -forcefail).
	Sabotage func(Spec) bool
	// Progress, when non-nil, is called after each Prewarm spec finishes
	// with the count of completed specs, the total for that Prewarm call,
	// the spec that just completed, and its result (zero on a setup error).
	// The result carries the cell's ledger RunID, so progress streams can be
	// correlated with ledger records. Calls are serialized; cached specs
	// report instantly. cmd/reusebench uses it for live sweep progress.
	Progress func(done, total int, sp Spec, r RunResult)
	// FlightRecDir, when non-empty, writes a flight-recorder manifest for
	// every cell attempt under this directory: a cell that aborts (even
	// after its retry) leaves its recording as a post-mortem artifact
	// (RunResult.FlightRec; open with reusedbg -dir, which re-simulates
	// it), while healthy cells delete theirs on completion. Nothing is
	// attached to the machine, so a recorded run costs two small file
	// writes.
	FlightRecDir string

	// journal, when non-nil, persists completed cells and mid-cell machine
	// checkpoints so a killed sweep can resume. Set via AttachJournal.
	journal *Journal
	// ledger, when non-nil, receives a provenance-stamped runstore record
	// for every simulated cell. Set via UseLedger/AttachLedger.
	ledger *runstore.Ledger

	// Sweep-progress instrumentation, exported through RegisterMetrics and
	// Sweep. Atomics (and the runningMu-guarded set) so a live observer can
	// read while Prewarm's workers simulate.
	specsTotal  atomic.Uint64
	specsDone   atomic.Uint64
	specsFailed atomic.Uint64
	workersBusy atomic.Int64
	runningMu   sync.Mutex
	running     map[string]struct{} // labels of specs currently simulating
}

// RegisterMetrics registers the suite's sweep-progress metrics with r, so a
// parallel sweep is observable point by point through the same registry
// surface the per-machine counters use. The readers are safe to snapshot
// from any goroutine while the sweep runs.
func (s *Suite) RegisterMetrics(r *telemetry.Registry) {
	r.Counter("sweep.specs_total", s.specsTotal.Load)
	r.Counter("sweep.specs_done", s.specsDone.Load)
	r.Counter("sweep.specs_failed", s.specsFailed.Load)
	r.Counter("sweep.cycles_simulated", s.TotalCycles)
	r.Gauge("sweep.workers_busy", func() float64 { return float64(s.workersBusy.Load()) })
}

// SweepState is a point-in-time view of sweep progress for live status
// endpoints.
type SweepState struct {
	Total       int      `json:"total"`
	Done        int      `json:"done"`
	Failed      int      `json:"failed"`
	WorkersBusy int      `json:"workers_busy"`
	Running     []string `json:"running,omitempty"` // specs simulating right now
	Cycles      uint64   `json:"cycles_simulated"`
}

// Sweep returns the current sweep progress. Safe to call concurrently with
// Prewarm.
func (s *Suite) Sweep() SweepState {
	st := SweepState{
		Total:       int(s.specsTotal.Load()),
		Done:        int(s.specsDone.Load()),
		Failed:      int(s.specsFailed.Load()),
		WorkersBusy: int(s.workersBusy.Load()),
		Cycles:      s.TotalCycles(),
	}
	s.runningMu.Lock()
	for l := range s.running {
		st.Running = append(st.Running, l)
	}
	s.runningMu.Unlock()
	sort.Strings(st.Running)
	return st
}

func (s *Suite) markRunning(label string, on bool) {
	s.runningMu.Lock()
	if on {
		if s.running == nil {
			s.running = map[string]struct{}{}
		}
		s.running[label] = struct{}{}
	} else {
		delete(s.running, label)
	}
	s.runningMu.Unlock()
}

// NewSuite creates an empty suite.
func NewSuite() *Suite {
	return &Suite{
		programs: map[Spec]*prog.Program{},
		results:  map[Spec]RunResult{},
	}
}

// Spec names one simulation; see cell.Spec.
type Spec = cell.Spec

// programOf returns the spec's compiled program, compiling it on first use
// (a kernel compiles in about a millisecond, so under the lock).
func (s *Suite) programOf(sp Spec) (*prog.Program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.programs[sp.ProgramID()]
	if !ok {
		var err error
		if p, _, err = sp.Program(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", sp.Name(cell.Label), err)
		}
		s.programs[sp.ProgramID()] = p
	}
	return p, nil
}

// Run executes (or returns the cached result of) one simulation. Results
// are cached by the normalized spec the caller asked for.
//
// A simulation abort (watchdog deadlock, cycle budget) does not fail the
// call: the run is retried once with a 4x cycle budget, and if it aborts
// again the partial statistics are cached and returned with Err set and a
// nil error, so a figure sweep always completes with the failed cell marked.
// A non-nil error means a setup problem (unknown kernel, compile failure).
func (s *Suite) Run(sp Spec) (RunResult, error) {
	sp = sp.Normalized()
	s.mu.Lock()
	if r, ok := s.results[sp]; ok {
		s.mu.Unlock()
		return r, nil
	}
	j, led := s.journal, s.ledger
	s.mu.Unlock()
	start := time.Now()

	mp, err := s.programOf(sp)
	if err != nil {
		return RunResult{}, err
	}
	// run is the cell as simulated: Sabotage and the retry change only its
	// cycle budget, never the cache, journal or ledger identity.
	run := sp
	if s.Sabotage != nil && s.Sabotage(sp) {
		run.MaxCycles = 100
	}

	// With a journal attached, a previous (killed) attempt may have left a
	// mid-run checkpoint; continue from it instead of restarting the cell.
	// The restore fingerprints config and program, so a stale or corrupt
	// checkpoint silently falls back to a fresh machine.
	var m *pipeline.Machine
	if j != nil {
		m = j.tryResume(sp, run.Config(), mp)
	}
	if m == nil {
		m = pipeline.New(run.Config(), mp)
	}
	// attempt runs the machine once, between the two writes of its
	// flight-recorder manifest when the suite records. A recording that
	// survives its run (the run aborted) is the cell's post-mortem
	// artifact; healthy runs delete theirs so a long sweep leaves artifacts
	// only where they matter.
	var postMortem string
	attempt := func(m *pipeline.Machine, try int) error {
		if s.FlightRecDir == "" {
			return runJournaled(j, sp, m)
		}
		dir := filepath.Join(s.FlightRecDir, fmt.Sprintf("%s-try%d", sp.Name(cell.RecorderDir), try))
		man := flightrec.Manifest{Spec: run}
		if err := flightrec.Start(dir, man, m); err != nil {
			return err
		}
		err := runJournaled(j, sp, m)
		if serr := flightrec.Stamp(dir, man, m); serr != nil && err == nil {
			err = serr
		}
		if err != nil {
			postMortem = dir
		} else {
			_ = os.RemoveAll(dir)
		}
		return err
	}
	runErr := attempt(m, 1)
	retried := false
	if runErr != nil {
		// Retry once with a larger budget: a legitimate workload can
		// outgrow the default cycle budget, and a wedged one fails again
		// quickly via the watchdog.
		retried = true
		budget := run.MaxCycles
		if budget == 0 {
			budget = pipeline.DefaultMaxCycles
		}
		run.MaxCycles = 4 * budget
		m.Release()
		m = pipeline.New(run.Config(), mp)
		if runErr = attempt(m, 2); runErr != nil {
			runErr = fmt.Errorf("experiments: %s (after retry): %w", sp.Name(cell.Label), runErr)
		}
	}
	if runErr == nil {
		postMortem = ""
	}
	r := RunResult{
		Spec:      sp,
		Cycles:    m.C.Cycles,
		Commits:   m.C.Commits,
		IPC:       m.IPC(),
		Gated:     m.GatedFraction(),
		Power:     power.Analyze(m),
		Core:      m.Ctl.S,
		Err:       runErr,
		Retried:   retried,
		FlightRec: postMortem,
	}
	// Capture the cell's record while the machine is still live (Release
	// pools its buffers). FromMachine walks the whole counter surface, so
	// skip the work entirely when nothing records.
	var rec runstore.Record
	if j != nil || led != nil {
		rec = runstore.FromMachine(sp, m)
		rec.Kind = runstore.KindCell
		rec.FlightRec = s.FlightRecDir != ""
		rec.Retried = retried
		if runErr != nil {
			rec.Err = runErr.Error()
		}
		rec.Host.WallNS = time.Since(start).Nanoseconds()
		if err := led.Append(&rec); err != nil {
			m.Release()
			return RunResult{}, err
		}
		if led != nil {
			r.RunID = rec.ID
		}
	}
	// The result holds only values, so the machine's scratch buffers can go
	// back to the pool for the next sweep point.
	m.Release()
	s.mu.Lock()
	s.results[sp] = r
	s.mu.Unlock()
	if j != nil {
		// Persist the finished cell before returning: the same record, id
		// included, that the ledger got. A failed append means the sweep
		// is no longer crash-safe, which is worth failing loudly.
		if err := j.record(&rec); err != nil {
			return r, err
		}
	}
	return r, nil
}

// cached returns the result of a spec that a Prewarm has already run.
func (s *Suite) cached(sp Spec) RunResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[sp.Normalized()]
	if !ok {
		panic("experiments: " + sp.Name(cell.Label) + " read before its Prewarm")
	}
	return r
}

// simulate runs one cell outside the suite's cache and ledger (A3's
// unrolled code, X1's alternate front ends) and keeps what those sections
// read.
func (s *Suite) simulate(sp Spec) (RunResult, error) {
	mp, err := s.programOf(sp)
	if err != nil {
		return RunResult{}, err
	}
	m := pipeline.New(sp.Config(), mp)
	defer m.Release()
	if err := m.Run(); err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s: %w", sp.Name(cell.Label), err)
	}
	return RunResult{IPC: m.IPC(), Gated: m.GatedFraction(), Power: power.Analyze(m)}, nil
}

// UseLedger directs the suite to append a provenance-stamped runstore record
// for every cell it simulates (cached and journal-replayed cells are not
// re-recorded — they ran, and were recorded, elsewhere). Pass nil to stop
// recording. Recording happens once per finished cell, outside the simulation
// loop, so sweep results are byte-identical with and without a ledger.
func (s *Suite) UseLedger(l *runstore.Ledger) {
	s.mu.Lock()
	s.ledger = l
	s.mu.Unlock()
}

// AttachLedger opens (or creates) the run ledger at path and records every
// subsequently simulated cell into it. The caller owns closing the returned
// ledger.
func (s *Suite) AttachLedger(path string) (*runstore.Ledger, error) {
	l, err := runstore.Open(path)
	if err != nil {
		return nil, err
	}
	s.UseLedger(l)
	return l, nil
}

// runJournaled executes the machine to completion. With a journal attached
// it additionally writes a checkpoint of the cell every CheckpointEvery
// cycles; a checkpoint write failure is deliberately swallowed — it only
// costs re-simulation after a crash, while aborting the run would turn a
// transient I/O hiccup into a lost cell.
func runJournaled(j *Journal, sp Spec, m *pipeline.Machine) error {
	if j == nil {
		return m.Run()
	}
	return m.RunBreakable(j.interval(), func() bool {
		_ = j.checkpoint(sp, m)
		return false
	})
}

// TotalCycles returns the simulated cycles accumulated over all cached runs
// (each distinct configuration counted once, as it is simulated once). It is
// the denominator for cmd/reusebench's throughput metrics.
func (s *Suite) TotalCycles() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, r := range s.results {
		n += r.Cycles
	}
	return n
}

// each calls f(i) for i in [0, n) on at most Parallelism goroutines at once
// (0 = GOMAXPROCS) and joins the errors. While f(i) runs it counts in
// sweep.workers_busy and Sweep().Running lists label(i).
func (s *Suite) each(n int, label func(i int) string, f func(i int) error) error {
	par := s.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.workersBusy.Add(1)
			l := label(i)
			s.markRunning(l, true)
			errs[i] = f(i)
			s.markRunning(l, false)
			s.workersBusy.Add(-1)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Prewarm runs the given specs in parallel, populating the cache. All
// failures are collected and joined, not just the first.
func (s *Suite) Prewarm(specs []Spec) error {
	var done int
	var progressMu sync.Mutex
	s.specsTotal.Add(uint64(len(specs)))
	return s.each(len(specs), func(i int) string { return specs[i].Name(cell.Label) }, func(i int) error {
		sp := specs[i]
		r, err := s.Run(sp)
		if err != nil {
			err = fmt.Errorf("%s: %w", sp.Name(cell.Label), err)
		}
		if err != nil || r.Failed() {
			s.specsFailed.Add(1)
		}
		s.specsDone.Add(1)
		if s.Progress != nil {
			progressMu.Lock()
			done++
			s.Progress(done, len(specs), sp, r)
			progressMu.Unlock()
		}
		return err
	})
}

// sweepSpecs returns the baseline+reuse runs for all kernels over the size
// sweep (shared by Figures 5-8).
func sweepSpecs(sizes []int) []Spec {
	var specs []Spec
	for _, k := range KernelNames() {
		for _, iq := range sizes {
			specs = append(specs, pairSpecs([]string{k}, iq)...)
		}
	}
	return specs
}

// KernelNames returns the Table 2 kernel order.
func KernelNames() []string { return workloads.Names() }
