package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce checks the suite's worker pool: every index runs
// exactly once, at most Parallelism at a time, every error is joined, and
// each running call is visible in the live sweep state until it returns.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, par := range []int{1, 3} {
		s := NewSuite()
		s.Parallelism = par
		const n = 20
		labels := make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("job %d", i)
		}
		want := make([]error, n)
		var calls [n]atomic.Int32
		var cur, peak atomic.Int64
		err := s.each(n, func(i int) string { return labels[i] }, func(i int) error {
			c := cur.Add(1)
			defer cur.Add(-1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			calls[i].Add(1)
			st := s.Sweep()
			if st.WorkersBusy < 1 || !slices.Contains(st.Running, labels[i]) {
				t.Errorf("par %d: %s runs but sweep state reads %+v", par, labels[i], st)
			}
			time.Sleep(time.Millisecond)
			if i%3 == 0 {
				want[i] = fmt.Errorf("job %d failed", i)
			}
			return want[i]
		})
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("par %d: index %d called %d times", par, i, got)
			}
		}
		for _, w := range want {
			if w != nil && !errors.Is(err, w) {
				t.Errorf("par %d: joined error %v lacks %v", par, err, w)
			}
		}
		if p := peak.Load(); p > int64(par) {
			t.Errorf("par %d: %d calls ran at once", par, p)
		}
		if st := s.Sweep(); st.WorkersBusy != 0 || len(st.Running) != 0 {
			t.Errorf("par %d: workers still marked busy afterwards: %+v", par, st)
		}
	}
}

func TestMean(t *testing.T) {
	vs := []float64{0.1, 0.7, 0.3}
	if got, want := mean(vs), 0.1/3+0.7/3+0.3/3; got != want {
		t.Errorf("mean = %v, want the running sum of v/n %v", got, want)
	}
	if got := mean([]float64{1, math.NaN(), 2}); got != 1.5 {
		t.Errorf("mean skipping NaN = %v, want 1.5", got)
	}
	if got := mean([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Errorf("mean of failed cells only = %v, want NaN", got)
	}
}

// meanExcept averages vals over every index but skip, the way a test
// recomputes an average that must leave one failed kernel out.
func meanExcept(vals []float64, skip int) float64 {
	sum := 0.0
	for i, v := range vals {
		if i != skip {
			sum += v
		}
	}
	return sum / float64(len(vals)-1)
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// TestSectionsSkipFailedCells sabotages adi at IQ 64. A3 and X1 read that
// kernel's baseline and reuse cells from the suite and the NBLT size sweep
// runs its reuse cells, so each must render adi's cells as "fail" and average
// over the other seven kernels, instead of feeding on partial statistics.
func TestSectionsSkipFailedCells(t *testing.T) {
	s := NewSuite()
	s.Parallelism = 2
	s.Sabotage = func(sp Spec) bool { return sp.Kernel == "adi" && sp.IQSize == 64 }
	const adi = 0
	names := KernelNames()

	a, err := s.AblationUnroll(4)
	if err != nil {
		t.Fatalf("A3 aborted: %v", err)
	}
	if !math.IsNaN(a.GatedOriginal[adi]) || !math.IsNaN(a.SaveOriginal[adi]) {
		t.Errorf("A3 adi = %v / %v, want NaN", a.GatedOriginal[adi], a.SaveOriginal[adi])
	}
	if row := strings.Split(a.String(), "\n")[2]; !strings.HasPrefix(row, "  adi") || strings.Count(row, "fail") != 2 {
		t.Errorf("A3 adi row %q, want its two original-code cells to read fail", row)
	}
	if !near(a.AvgGatedOriginal, meanExcept(a.GatedOriginal, adi)) || !near(a.AvgSaveOriginal, meanExcept(a.SaveOriginal, adi)) {
		t.Errorf("A3 averages %v / %v do not skip adi", a.AvgGatedOriginal, a.AvgSaveOriginal)
	}
	if !near(a.AvgGatedUnrolled, mean(a.GatedUnrolled)) || math.IsNaN(a.GatedUnrolled[adi]) {
		t.Errorf("A3 unrolled runs do not read from the suite, yet adi = %v", a.GatedUnrolled[adi])
	}

	f, err := s.CompareFrontEnds()
	if err != nil {
		t.Fatalf("X1 aborted: %v", err)
	}
	for name, tab := range map[string]struct {
		vals map[string][3]float64
		avg  [3]float64
	}{
		"icache": {f.ICacheSave, f.AvgICache}, "overall": {f.OverallSave, f.AvgOverall},
		"epi": {f.EPISave, f.AvgEPI}, "ipc": {f.IPCDelta, f.AvgIPC},
	} {
		for m := range MechanismNames {
			col := make([]float64, len(names))
			for i, k := range names {
				col[i] = tab.vals[k][m]
			}
			if !math.IsNaN(col[adi]) {
				t.Errorf("X1 %s %s adi = %v, want NaN", name, MechanismNames[m], col[adi])
			}
			if !near(tab.avg[m], meanExcept(col, adi)) {
				t.Errorf("X1 %s %s average %v, want %v over the other kernels", name, MechanismNames[m], tab.avg[m], meanExcept(col, adi))
			}
		}
	}
	if n := strings.Count(f.String(), "  adi            fail       fail       fail\n"); n != 3 {
		t.Errorf("X1 renders %d failed adi rows, want 3:\n%s", n, f)
	}

	sw, err := s.SweepNBLTSizes([]int{8})
	if err != nil {
		t.Fatalf("NBLT size sweep aborted: %v", err)
	}
	for i, nblt := range sw.Sizes {
		rate, gated := make([]float64, len(names)), make([]float64, len(names))
		for k, name := range names {
			r, err := s.Run(Spec{Kernel: name, IQSize: 64, Reuse: true, NBLTSize: nblt})
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed() != (k == adi) {
				t.Fatalf("%s nblt=%d failed=%v", name, nblt, r.Failed())
			}
			if r.Core.Bufferings > 0 {
				rate[k] = float64(r.Core.Revokes) / float64(r.Core.Bufferings)
			}
			gated[k] = r.Gated
		}
		if !near(sw.RevokeRate[i], meanExcept(rate, adi)) || !near(sw.Gated[i], meanExcept(gated, adi)) {
			t.Errorf("nblt=%d: revoke %v gated %v, want %v %v over the other kernels",
				nblt, sw.RevokeRate[i], sw.Gated[i], meanExcept(rate, adi), meanExcept(gated, adi))
		}
	}

	if st := s.Sweep(); st.WorkersBusy != 0 || len(st.Running) != 0 {
		t.Errorf("workers still marked busy after the sections: %+v", st)
	}
}

// TestPoolSectionsMatchPinnedReport runs the NBLT size sweep, A3 and X1 from
// an empty suite on two workers and requires each section's text to equal
// its section of the pinned default report, which was produced when these
// sections still ran their simulations one at a time. Under -race it is
// skipped: its ~90 simulations would take minutes, and
// TestSectionsSkipFailedCells drives the same pool paths.
func TestPoolSectionsMatchPinnedReport(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full simulations")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "expected", "paper-figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The report prints each section followed by a blank line; key the
	// sections by their title line.
	pinned := map[string]string{}
	for _, blk := range strings.Split(string(data), "\n\n") {
		title, _, _ := strings.Cut(blk, "\n")
		pinned[title] = blk + "\n"
	}
	s := NewSuite()
	s.Parallelism = 2
	for _, sec := range []func() (fmt.Stringer, error){
		func() (fmt.Stringer, error) { return s.SweepNBLTSizes([]int{0, 2, 4, 8, 16}) },
		func() (fmt.Stringer, error) { return s.AblationUnroll(4) },
		func() (fmt.Stringer, error) { return s.CompareFrontEnds() },
	} {
		v, err := sec()
		if err != nil {
			t.Fatal(err)
		}
		got := v.String()
		title, _, _ := strings.Cut(got, "\n")
		if want, ok := pinned[title]; !ok {
			t.Errorf("pinned report has no section %q", title)
		} else if got != want {
			t.Errorf("section %q differs from the pinned report:\n--- got ---\n%s--- pinned ---\n%s", title, got, want)
		}
	}
}
