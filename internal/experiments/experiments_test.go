package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reuseiq/internal/core"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/runstore"
	"reuseiq/internal/telemetry"
)

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"64 entries", "bimod, 2048", "32KB, 2 way", "4 IALU, 1 IMULT"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2()
	for _, k := range KernelNames() {
		if !strings.Contains(t2, k) {
			t.Errorf("Table 2 missing %s", k)
		}
	}
}

func TestKernelNames(t *testing.T) {
	names := KernelNames()
	if len(names) != 8 || names[0] != "adi" || names[7] != "wss" {
		t.Errorf("names = %v", names)
	}
}

func TestRunCachesResults(t *testing.T) {
	s := NewSuite()
	sp := Spec{Kernel: "tsf", IQSize: 32, Reuse: true, NBLTSize: -1}
	r1, err := s.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Cycles == 0 {
		t.Error("cached run differs or empty")
	}
	if len(s.results) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(s.results))
	}
}

func TestRunUnknownKernel(t *testing.T) {
	s := NewSuite()
	if _, err := s.Run(Spec{Kernel: "nope", IQSize: 64}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestDistributedRunsDiffer(t *testing.T) {
	s := NewSuite()
	orig, err := s.Run(Spec{Kernel: "btrix", IQSize: 64, Reuse: true, NBLTSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := s.Run(Spec{Kernel: "btrix", IQSize: 64, Reuse: true, Distributed: true, NBLTSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	// btrix's ~90-instruction body cannot gate at IQ=64; after
	// distribution its split loops can.
	if dist.Gated <= orig.Gated {
		t.Errorf("distribution did not raise gating: %.2f -> %.2f", orig.Gated, dist.Gated)
	}
}

// One small end-to-end figure on a reduced size set, exercising the whole
// harness path without the full sweep cost.
func TestFigure5SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	s := NewSuite()
	f, err := s.Figure5([]int{32})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Kernels) != 8 || len(f.Average) != 1 {
		t.Fatalf("shape: %d kernels, %d averages", len(f.Kernels), len(f.Average))
	}
	// The paper's claim: small-loop kernels gate heavily even at IQ=32.
	for _, k := range []string{"aps", "tsf", "wss"} {
		if f.Gated[k][0] < 0.5 {
			t.Errorf("%s gated only %.1f%% at IQ=32", k, 100*f.Gated[k][0])
		}
	}
	// Large-loop kernels barely gate at IQ=32.
	for _, k := range []string{"btrix", "tomcat", "vpenta"} {
		if f.Gated[k][0] > 0.3 {
			t.Errorf("%s gated %.1f%% at IQ=32, expected little", k, 100*f.Gated[k][0])
		}
	}
	out := f.String()
	if !strings.Contains(out, "average") {
		t.Error("rendering lacks average row")
	}
}

func TestStrategySpecsDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	s := NewSuite()
	multi, err := s.Run(Spec{Kernel: "tsf", IQSize: 64, Reuse: true, Strategy: core.StrategyMulti, NBLTSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := s.Run(Spec{Kernel: "tsf", IQSize: 64, Reuse: true, Strategy: core.StrategySingle, NBLTSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Core.IterationsBuffered <= single.Core.IterationsBuffered {
		t.Error("strategies not distinguished in cache key or controller")
	}
}

// TestSabotagedSweepCompletes forces one cell of the Figure 5 sweep to fail
// and requires the figure to complete anyway: the cell renders as "fail",
// valid cells keep real data, and the averages skip the failed kernel.
func TestSabotagedSweepCompletes(t *testing.T) {
	s := NewSuite()
	s.Sabotage = func(sp Spec) bool {
		return sp.Kernel == "adi" && sp.IQSize == 64 && sp.Reuse
	}
	sizes := []int{32, 64}
	f, err := s.Figure5(sizes)
	if err != nil {
		t.Fatalf("sabotaged sweep aborted: %v", err)
	}
	row := f.Gated["adi"]
	if !math.IsNaN(row[1]) {
		t.Errorf("sabotaged cell = %v, want NaN", row[1])
	}
	if math.IsNaN(row[0]) {
		t.Error("healthy cell of the sabotaged kernel went NaN")
	}
	if math.IsNaN(f.Average[1]) || f.Average[1] <= 0 {
		t.Errorf("average over surviving kernels = %v", f.Average[1])
	}
	out := f.String()
	if !strings.Contains(out, "fail") {
		t.Errorf("rendered figure does not mark the failed cell:\n%s", out)
	}

	// The failed run is cached as a degraded partial, not an error.
	r, err := s.Run(Spec{Kernel: "adi", IQSize: 64, Reuse: true, NBLTSize: -1})
	if err != nil {
		t.Fatalf("degraded cell returned error: %v", err)
	}
	if !r.Failed() || !r.Retried {
		t.Errorf("degraded cell: Err=%v Retried=%v", r.Err, r.Retried)
	}
	if r.Cycles == 0 {
		t.Error("degraded cell carries no partial statistics")
	}
}

// TestFigure7SkipsFailedCells checks the comparison figures, which need both
// the baseline and reuse runs of a cell, under sabotage of only the baseline.
func TestFigure7SkipsFailedCells(t *testing.T) {
	s := NewSuite()
	s.Sabotage = func(sp Spec) bool {
		return sp.Kernel == "aps" && sp.IQSize == 32 && !sp.Reuse
	}
	f, err := s.Figure7([]int{32})
	if err != nil {
		t.Fatalf("sabotaged comparison aborted: %v", err)
	}
	if !math.IsNaN(f.Overall["aps"][0]) {
		t.Errorf("aps cell = %v, want NaN", f.Overall["aps"][0])
	}
	if math.IsNaN(f.Average[0]) {
		t.Error("average went NaN despite surviving kernels")
	}
}

// TestPrewarmJoinsErrors requires Prewarm to report every setup failure, not
// only the first.
func TestPrewarmJoinsErrors(t *testing.T) {
	s := NewSuite()
	err := s.Prewarm([]Spec{
		{Kernel: "no-such-kernel-a", IQSize: 64},
		{Kernel: "adi", IQSize: 32, NBLTSize: -1},
		{Kernel: "no-such-kernel-b", IQSize: 64},
	})
	if err == nil {
		t.Fatal("Prewarm swallowed setup errors")
	}
	msg := err.Error()
	for _, want := range []string{"no-such-kernel-a", "no-such-kernel-b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q: %v", want, msg)
		}
	}
}

// TestPrewarmProgress requires the Progress callback to fire once per spec
// with a monotonically increasing done count reaching the total.
func TestPrewarmProgress(t *testing.T) {
	s := NewSuite()
	s.Parallelism = 4
	var calls []int
	var kernels []string
	s.Progress = func(done, total int, sp Spec, r RunResult) {
		if total != 3 {
			t.Errorf("total = %d, want 3", total)
		}
		calls = append(calls, done)
		kernels = append(kernels, sp.Kernel)
	}
	err := s.Prewarm([]Spec{
		{Kernel: "aps", IQSize: 32, NBLTSize: -1},
		{Kernel: "aps", IQSize: 32, Reuse: true, NBLTSize: -1},
		{Kernel: "aps", IQSize: 64, Reuse: true, NBLTSize: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("Progress fired %d times, want 3", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Errorf("call %d reported done=%d, want %d (serialized, increasing)", i, d, i+1)
		}
	}
	for _, k := range kernels {
		if k != "aps" {
			t.Errorf("Progress reported kernel %q", k)
		}
	}
}

// Sweep-progress metrics: after a Prewarm, done == total, the cycle counter
// matches TotalCycles, no workers remain busy, and a sabotaged cell counts
// as failed.
func TestSweepMetricsTrackPrewarm(t *testing.T) {
	s := NewSuite()
	s.Parallelism = 2
	s.Sabotage = func(sp Spec) bool { return sp.IQSize == 16 }
	specs := []Spec{
		{Kernel: "adi", IQSize: 32, Reuse: true, NBLTSize: -1},
		{Kernel: "adi", IQSize: 32, Reuse: false, NBLTSize: -1},
		{Kernel: "aps", IQSize: 16, Reuse: true, NBLTSize: -1},
	}
	if err := s.Prewarm(specs); err != nil {
		t.Fatal(err)
	}
	st := s.Sweep()
	if st.Total != 3 || st.Done != 3 {
		t.Errorf("sweep state %+v, want total=done=3", st)
	}
	if st.Failed != 1 {
		t.Errorf("failed = %d, want 1 (sabotaged cell)", st.Failed)
	}
	if st.WorkersBusy != 0 || len(st.Running) != 0 {
		t.Errorf("workers still marked busy after Prewarm: %+v", st)
	}
	if st.Cycles == 0 || st.Cycles != s.TotalCycles() {
		t.Errorf("cycles = %d, TotalCycles = %d", st.Cycles, s.TotalCycles())
	}

	r := &telemetry.Registry{}
	s.RegisterMetrics(r)
	set := r.Snapshot()
	if got := set.Get("sweep.specs_done"); got != 3 {
		t.Errorf("sweep.specs_done = %d, want 3", got)
	}
	if got := set.Get("sweep.specs_failed"); got != 1 {
		t.Errorf("sweep.specs_failed = %d, want 1", got)
	}
	if got := set.Get("sweep.cycles_simulated"); got != st.Cycles {
		t.Errorf("sweep.cycles_simulated = %d, want %d", got, st.Cycles)
	}
}

// TestFlightRecPostMortem: with FlightRecDir set, a sabotaged cell leaves a
// loadable post-mortem recording and reports its directory, while a healthy
// cell cleans its recording up.
func TestFlightRecPostMortem(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite()
	s.FlightRecDir = dir
	s.Sabotage = func(sp Spec) bool { return sp.Reuse }

	failed, err := s.Run(Spec{Kernel: "aps", IQSize: 32, Reuse: true})
	if err != nil {
		t.Fatalf("sabotaged cell returned setup error: %v", err)
	}
	if !failed.Failed() {
		t.Fatal("sabotaged cell did not fail")
	}
	if failed.FlightRec == "" {
		t.Fatal("failed cell left no post-mortem recording directory")
	}
	a, err := flightrec.Load(failed.FlightRec)
	if err != nil {
		t.Fatalf("post-mortem recording does not load: %v", err)
	}
	sess := flightrec.NewSession(a)
	defer sess.Close()
	if err := sess.Seek(a.End); err != nil {
		t.Fatalf("post-mortem recording does not seek to its end: %v", err)
	}
	if sess.Cycle() != a.End {
		t.Errorf("seek landed at cycle %d, want %d", sess.Cycle(), a.End)
	}

	healthy, err := s.Run(Spec{Kernel: "aps", IQSize: 32, Reuse: false})
	if err != nil {
		t.Fatalf("healthy cell: %v", err)
	}
	if healthy.Failed() {
		t.Fatalf("healthy cell failed: %v", healthy.Err)
	}
	if healthy.FlightRec != "" {
		t.Errorf("healthy cell reports a recording: %s", healthy.FlightRec)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), "reusefalse") {
			t.Errorf("healthy cell's recording %s was not deleted", e.Name())
		}
	}
}

// TestLedgerRecordsCellsAndStaysInert is the ledger acceptance test for
// sweeps: with a ledger attached, every simulated cell lands in the ledger
// with its provenance stamp and the Progress-visible RunID, cached cells are
// not re-recorded, and the rendered figure is byte-identical to a
// ledger-free suite — recording must never perturb the modeled results.
func TestLedgerRecordsCellsAndStaysInert(t *testing.T) {
	sizes := []int{32}
	bare := NewSuite()
	fBare, err := bare.Figure5(sizes)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSuite()
	led, err := s.AttachLedger(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	var progressIDs []string
	s.Progress = func(done, total int, sp Spec, r RunResult) {
		if r.RunID != "" {
			progressIDs = append(progressIDs, r.RunID)
		}
	}
	fLed, err := s.Figure5(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if fBare.String() != fLed.String() {
		t.Errorf("figure 5 differs with a ledger attached:\n--- bare ---\n%s\n--- ledger ---\n%s", fBare, fLed)
	}

	recs := led.Records()
	if len(recs) == 0 {
		t.Fatal("no cells recorded")
	}
	byID := map[string]bool{}
	for _, r := range recs {
		byID[r.ID] = true
		if r.Kind != runstore.KindCell {
			t.Errorf("record %s kind %q, want cell", r.ID, r.Kind)
		}
		if r.Kernel == "" || r.Fingerprint == "" || len(r.Metrics.Counters) == 0 {
			t.Errorf("record %s missing provenance: kernel=%q fp=%q counters=%d",
				r.ID, r.Kernel, r.Fingerprint, len(r.Metrics.Counters))
		}
	}
	if len(progressIDs) != len(recs) {
		t.Errorf("Progress reported %d run ids, ledger holds %d records", len(progressIDs), len(recs))
	}
	for _, id := range progressIDs {
		if !byID[id] {
			t.Errorf("Progress reported run id %s not present in the ledger", id)
		}
	}

	// Cached re-render: no new records, and the cached result still points
	// at the ledger record of its original simulation.
	n := led.Len()
	r, err := s.Run(Spec{Kernel: "aps", IQSize: 32, Reuse: true, NBLTSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !byID[r.RunID] {
		t.Errorf("cached cell RunID %q does not match a ledger record", r.RunID)
	}
	if led.Len() != n {
		t.Errorf("cached cell re-recorded: ledger grew %d -> %d", n, led.Len())
	}

	// Fingerprint-identical repeats across suites must satisfy the sentinel:
	// a second suite over the same specs doubles every group cleanly.
	s2 := NewSuite()
	led2, err := s2.AttachLedger(led.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if _, err := s2.Figure5(sizes); err != nil {
		t.Fatal(err)
	}
	rep := runstore.Sentinel(led2.Records())
	if !rep.Pass() {
		var b strings.Builder
		_ = rep.WriteText(&b)
		t.Errorf("sentinel fails across two identical sweeps:\n%s", b.String())
	}
}
