package experiments

import (
	"fmt"
	"math"
	"strings"

	"reuseiq/internal/core"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/workloads"
)

// Degraded runs appear in figure data as NaN cells; they render as "fail"
// and are excluded from averages.

// num formats v with verb, or right-aligns "fail" to width when v is NaN.
func num(v float64, verb string, width int) string {
	if math.IsNaN(v) {
		return fmt.Sprintf("%*s", width, "fail")
	}
	return fmt.Sprintf(verb, v)
}

// pct formats 100*v with verb, or right-aligns "fail" to width when v is NaN.
func pct(v float64, verb string, width int) string {
	return num(100*v, verb, width)
}

// colMeans averages each of cols columns across rows, skipping NaN cells. A
// column with no valid cells averages to NaN.
func colMeans(rows [][]float64, cols int) []float64 {
	out := make([]float64, cols)
	for i := range out {
		sum, n := 0.0, 0
		for _, row := range rows {
			if !math.IsNaN(row[i]) {
				sum += row[i]
				n++
			}
		}
		if n == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(n)
		}
	}
	return out
}

// Table1 renders the baseline configuration (paper Table 1).
func Table1() string {
	cfg := pipeline.DefaultConfig()
	var b strings.Builder
	b.WriteString("Table 1: baseline configuration\n")
	row := func(k, v string) { fmt.Fprintf(&b, "  %-22s %s\n", k, v) }
	row("Issue Queue", fmt.Sprintf("%d entries", cfg.IQSize))
	row("Load/Store Queue", fmt.Sprintf("%d entries", cfg.LSQSize))
	row("ROB", fmt.Sprintf("%d entries", cfg.ROBSize))
	row("Fetch Queue", fmt.Sprintf("%d entries", cfg.FetchQueueSize))
	row("Fetch/Decode Width", fmt.Sprintf("%d inst. per cycle", cfg.FetchWidth))
	row("Issue/Commit Width", fmt.Sprintf("%d inst. per cycle", cfg.IssueWidth))
	row("Function Units", fmt.Sprintf("%d IALU, %d IMULT, %d FPALU, %d FPMULT",
		cfg.FU.NumIntALU, cfg.FU.NumIntMul, cfg.FU.NumFPALU, cfg.FU.NumFPMul))
	row("Branch Predictor", fmt.Sprintf("bimod, %d entries, RAS %d entries",
		cfg.Bpred.BimodEntries, cfg.Bpred.RASEntries))
	row("BTB", fmt.Sprintf("%d set %d way assoc.", cfg.Bpred.BTBSets, cfg.Bpred.BTBWays))
	row("L1 ICache", fmt.Sprintf("%dKB, %d way, %d cycle",
		cfg.Mem.L1I.SizeBytes()/1024, cfg.Mem.L1I.Ways, cfg.Mem.L1I.HitLat))
	row("L1 DCache", fmt.Sprintf("%dKB, %d way, %d cycle",
		cfg.Mem.L1D.SizeBytes()/1024, cfg.Mem.L1D.Ways, cfg.Mem.L1D.HitLat))
	row("L2 UCache", fmt.Sprintf("%dKB, %d way, %d cycles",
		cfg.Mem.L2.SizeBytes()/1024, cfg.Mem.L2.Ways, cfg.Mem.L2.HitLat))
	row("TLB", fmt.Sprintf("ITLB: %d set %d way, DTLB: %d set %d way, %dKB page, %d cycle penalty",
		cfg.Mem.ITLB.Sets, cfg.Mem.ITLB.Ways, cfg.Mem.DTLB.Sets, cfg.Mem.DTLB.Ways,
		cfg.Mem.ITLB.PageBytes/1024, cfg.Mem.ITLB.MissLat))
	row("Memory", fmt.Sprintf("%d cycles first chunk, %d cycles rest",
		cfg.Mem.MemLatFirst, cfg.Mem.MemLatRest))
	row("NBLT", fmt.Sprintf("%d entries", cfg.Reuse.NBLTSize))
	return b.String()
}

// Table2 renders the benchmark list (paper Table 2).
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: array-intensive applications\n")
	for _, name := range workloads.Names() {
		fmt.Fprintf(&b, "  %-8s %s\n", name, workloads.Source(name))
	}
	return b.String()
}

// Fig5 holds Figure 5's data: gated-cycle fraction per kernel and size.
type Fig5 struct {
	Sizes   []int
	Kernels []string
	Gated   map[string][]float64 // kernel -> per-size fraction
	Average []float64
}

// Figure5 measures the fraction of total execution cycles with the pipeline
// front-end gated, per issue-queue size.
func (s *Suite) Figure5(sizes []int) (*Fig5, error) {
	if err := s.Prewarm(sweepSpecs(sizes)); err != nil {
		return nil, err
	}
	f := &Fig5{Sizes: sizes, Kernels: KernelNames(), Gated: map[string][]float64{}}
	rows := make([][]float64, 0, len(f.Kernels))
	for _, k := range f.Kernels {
		row := make([]float64, len(sizes))
		for i, iq := range sizes {
			r := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: -1})
			if r.Failed() {
				row[i] = math.NaN()
				continue
			}
			row[i] = r.Gated
		}
		f.Gated[k] = row
		rows = append(rows, row)
	}
	f.Average = colMeans(rows, len(sizes))
	return f, nil
}

func (f *Fig5) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: pipeline front-end gated rate (in cycles)\n")
	fmt.Fprintf(&b, "  %-8s", "")
	for _, iq := range f.Sizes {
		fmt.Fprintf(&b, "  IQ%-4d", iq)
	}
	b.WriteString("\n")
	for _, k := range f.Kernels {
		fmt.Fprintf(&b, "  %-8s", k)
		for _, g := range f.Gated[k] {
			b.WriteString("  " + pct(g, "%5.1f%%", 6))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-8s", "average")
	for _, g := range f.Average {
		b.WriteString("  " + pct(g, "%5.1f%%", 6))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig6 holds Figure 6's data: average per-cycle power savings of the
// instruction cache, branch predictor and issue queue, and the overhead
// hardware's share of total power, per issue-queue size.
type Fig6 struct {
	Sizes    []int
	ICache   []float64
	BPred    []float64
	IssueQ   []float64
	Overhead []float64
}

// Figure6 computes component power reductions averaged over all kernels.
func (s *Suite) Figure6(sizes []int) (*Fig6, error) {
	if err := s.Prewarm(sweepSpecs(sizes)); err != nil {
		return nil, err
	}
	f := &Fig6{Sizes: sizes,
		ICache: make([]float64, len(sizes)), BPred: make([]float64, len(sizes)),
		IssueQ: make([]float64, len(sizes)), Overhead: make([]float64, len(sizes))}
	names := KernelNames()
	for i, iq := range sizes {
		// Average over the kernels whose baseline and reuse runs both
		// completed; a column with none is NaN.
		n := 0.0
		for _, k := range names {
			base := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: false, NBLTSize: -1})
			reuse := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: -1})
			if base.Failed() || reuse.Failed() {
				continue
			}
			sv := power.Compare(base.Power, reuse.Power)
			f.ICache[i] += sv.Component[power.ICache]
			f.BPred[i] += sv.Component[power.BPred]
			f.IssueQ[i] += sv.Component[power.IssueQueue]
			f.Overhead[i] += sv.OverheadShare
			n++
		}
		if n == 0 {
			n = math.NaN()
		}
		f.ICache[i] /= n
		f.BPred[i] /= n
		f.IssueQ[i] /= n
		f.Overhead[i] /= n
	}
	return f, nil
}

func (f *Fig6) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: per-cycle power savings (average over benchmarks)\n")
	fmt.Fprintf(&b, "  %-10s", "")
	for _, iq := range f.Sizes {
		fmt.Fprintf(&b, "  IQ%-4d", iq)
	}
	b.WriteString("\n")
	row := func(name string, vals []float64) {
		fmt.Fprintf(&b, "  %-10s", name)
		for _, v := range vals {
			b.WriteString("  " + pct(v, "%5.1f%%", 6))
		}
		b.WriteString("\n")
	}
	row("icache", f.ICache)
	row("bpred", f.BPred)
	row("issueq", f.IssueQ)
	row("overhead", f.Overhead)
	return b.String()
}

// Fig7 holds Figure 7's data: overall per-cycle power reduction per kernel
// and size.
type Fig7 struct {
	Sizes   []int
	Kernels []string
	Overall map[string][]float64
	Average []float64
}

// Figure7 computes the whole-processor power reduction.
func (s *Suite) Figure7(sizes []int) (*Fig7, error) {
	if err := s.Prewarm(sweepSpecs(sizes)); err != nil {
		return nil, err
	}
	f := &Fig7{Sizes: sizes, Kernels: KernelNames(), Overall: map[string][]float64{}}
	rows := make([][]float64, 0, len(f.Kernels))
	for _, k := range f.Kernels {
		row := make([]float64, len(sizes))
		for i, iq := range sizes {
			base := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: false, NBLTSize: -1})
			reuse := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: -1})
			if base.Failed() || reuse.Failed() {
				row[i] = math.NaN()
				continue
			}
			row[i] = power.Compare(base.Power, reuse.Power).Overall
		}
		f.Overall[k] = row
		rows = append(rows, row)
	}
	f.Average = colMeans(rows, len(sizes))
	return f, nil
}

func (f *Fig7) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: overall power (per cycle) savings vs baseline\n")
	fmt.Fprintf(&b, "  %-8s", "")
	for _, iq := range f.Sizes {
		fmt.Fprintf(&b, "  IQ%-4d", iq)
	}
	b.WriteString("\n")
	for _, k := range f.Kernels {
		fmt.Fprintf(&b, "  %-8s", k)
		for _, v := range f.Overall[k] {
			b.WriteString("  " + pct(v, "%5.1f%%", 6))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-8s", "average")
	for _, v := range f.Average {
		b.WriteString("  " + pct(v, "%5.1f%%", 6))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig8 holds Figure 8's data: IPC degradation per kernel and size.
type Fig8 struct {
	Sizes       []int
	Kernels     []string
	Degradation map[string][]float64
	Average     []float64
}

// Figure8 computes the performance impact: 1 - IPC(reuse)/IPC(baseline).
func (s *Suite) Figure8(sizes []int) (*Fig8, error) {
	if err := s.Prewarm(sweepSpecs(sizes)); err != nil {
		return nil, err
	}
	f := &Fig8{Sizes: sizes, Kernels: KernelNames(), Degradation: map[string][]float64{}}
	rows := make([][]float64, 0, len(f.Kernels))
	for _, k := range f.Kernels {
		row := make([]float64, len(sizes))
		for i, iq := range sizes {
			base := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: false, NBLTSize: -1})
			reuse := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: -1})
			if base.Failed() || reuse.Failed() {
				row[i] = math.NaN()
				continue
			}
			row[i] = 1 - reuse.IPC/base.IPC
		}
		f.Degradation[k] = row
		rows = append(rows, row)
	}
	f.Average = colMeans(rows, len(sizes))
	return f, nil
}

func (f *Fig8) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: performance (IPC) degradation vs baseline\n")
	fmt.Fprintf(&b, "  %-8s", "")
	for _, iq := range f.Sizes {
		fmt.Fprintf(&b, "  IQ%-4d", iq)
	}
	b.WriteString("\n")
	for _, k := range f.Kernels {
		fmt.Fprintf(&b, "  %-8s", k)
		for _, v := range f.Degradation[k] {
			b.WriteString("  " + pct(v, "%5.2f%%", 6))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-8s", "average")
	for _, v := range f.Average {
		b.WriteString("  " + pct(v, "%5.2f%%", 6))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig9 holds Figure 9's data: overall power reduction with original vs
// loop-distributed code at the baseline 64-entry issue queue.
type Fig9 struct {
	Kernels                   []string
	Original                  []float64
	Optimized                 []float64
	AvgOriginal, AvgOptimized float64
	// Supporting series the paper quotes in the text.
	GatedOriginal, GatedOptimized       float64
	PerfLossOriginal, PerfLossOptimized float64
}

// Figure9 compares original and loop-distributed code at IQ=64.
func (s *Suite) Figure9() (*Fig9, error) {
	const iq = 64
	f := &Fig9{Kernels: KernelNames()}
	var specs []Spec
	for _, k := range f.Kernels {
		for _, reuse := range []bool{false, true} {
			specs = append(specs,
				Spec{Kernel: k, IQSize: iq, Reuse: reuse, NBLTSize: -1},
				Spec{Kernel: k, IQSize: iq, Reuse: reuse, Distributed: true, NBLTSize: -1})
		}
	}
	if err := s.Prewarm(specs); err != nil {
		return nil, err
	}
	n := 0.0
	for _, k := range f.Kernels {
		get := func(reuse, dist bool) RunResult {
			return s.cached(Spec{Kernel: k, IQSize: iq, Reuse: reuse, Distributed: dist, NBLTSize: -1})
		}
		ob, or, db, dr := get(false, false), get(true, false), get(false, true), get(true, true)
		if ob.Failed() || or.Failed() || db.Failed() || dr.Failed() {
			f.Original = append(f.Original, math.NaN())
			f.Optimized = append(f.Optimized, math.NaN())
			continue
		}
		f.Original = append(f.Original, power.Compare(ob.Power, or.Power).Overall)
		f.Optimized = append(f.Optimized, power.Compare(db.Power, dr.Power).Overall)
		f.AvgOriginal += f.Original[len(f.Original)-1]
		f.AvgOptimized += f.Optimized[len(f.Optimized)-1]
		f.GatedOriginal += or.Gated
		f.GatedOptimized += dr.Gated
		f.PerfLossOriginal += (1 - or.IPC/ob.IPC)
		f.PerfLossOptimized += (1 - dr.IPC/db.IPC)
		n++
	}
	if n == 0 {
		n = math.NaN()
	}
	f.AvgOriginal /= n
	f.AvgOptimized /= n
	f.GatedOriginal /= n
	f.GatedOptimized /= n
	f.PerfLossOriginal /= n
	f.PerfLossOptimized /= n
	return f, nil
}

func (f *Fig9) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: impact of compiler optimization (loop distribution, IQ=64)\n")
	fmt.Fprintf(&b, "  %-8s  %9s  %9s\n", "", "original", "optimized")
	for i, k := range f.Kernels {
		fmt.Fprintf(&b, "  %-8s  %s  %s\n", k,
			pct(f.Original[i], "%8.1f%%", 9), pct(f.Optimized[i], "%8.1f%%", 9))
	}
	fmt.Fprintf(&b, "  %-8s  %s  %s\n", "average",
		pct(f.AvgOriginal, "%8.1f%%", 9), pct(f.AvgOptimized, "%8.1f%%", 9))
	fmt.Fprintf(&b, "  gated cycles: %s -> %s; IPC loss: %s -> %s\n",
		pct(f.GatedOriginal, "%.1f%%", 4), pct(f.GatedOptimized, "%.1f%%", 4),
		pct(f.PerfLossOriginal, "%.1f%%", 4), pct(f.PerfLossOptimized, "%.1f%%", 4))
	return b.String()
}

// NBLTAblation holds A1's data: buffering revoke rates with and without the
// non-bufferable loop table (paper §3 quotes ~40% -> <10%).
type NBLTAblation struct {
	Kernels             []string
	RateWithout         []float64 // revokes / buffering attempts, NBLT disabled
	RateWith            []float64 // NBLT = 8 entries
	AvgWithout, AvgWith float64
}

// AblationNBLT measures revoke rates at IQ=64.
func (s *Suite) AblationNBLT() (*NBLTAblation, error) {
	const iq = 64
	a := &NBLTAblation{Kernels: KernelNames()}
	var specs []Spec
	for _, k := range a.Kernels {
		specs = append(specs,
			Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: 0},
			Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: 8})
	}
	if err := s.Prewarm(specs); err != nil {
		return nil, err
	}
	rate := func(st core.Stats) float64 {
		if st.Bufferings == 0 {
			return 0
		}
		return float64(st.Revokes) / float64(st.Bufferings)
	}
	n := 0.0
	for _, k := range a.Kernels {
		off := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: 0})
		on := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: 8})
		if off.Failed() || on.Failed() {
			a.RateWithout = append(a.RateWithout, math.NaN())
			a.RateWith = append(a.RateWith, math.NaN())
			continue
		}
		a.RateWithout = append(a.RateWithout, rate(off.Core))
		a.RateWith = append(a.RateWith, rate(on.Core))
		a.AvgWithout += rate(off.Core)
		a.AvgWith += rate(on.Core)
		n++
	}
	if n == 0 {
		n = math.NaN()
	}
	a.AvgWithout /= n
	a.AvgWith /= n
	return a, nil
}

func (a *NBLTAblation) String() string {
	var b strings.Builder
	b.WriteString("Ablation A1: buffering revoke rate, NBLT disabled vs 8 entries (IQ=64)\n")
	fmt.Fprintf(&b, "  %-8s  %8s  %8s\n", "", "no NBLT", "NBLT=8")
	for i, k := range a.Kernels {
		fmt.Fprintf(&b, "  %-8s  %s  %s\n", k,
			pct(a.RateWithout[i], "%7.1f%%", 8), pct(a.RateWith[i], "%7.1f%%", 8))
	}
	fmt.Fprintf(&b, "  %-8s  %s  %s\n", "average",
		pct(a.AvgWithout, "%7.1f%%", 8), pct(a.AvgWith, "%7.1f%%", 8))
	return b.String()
}

// StrategyAblation holds A2's data: single- vs multi-iteration buffering.
type StrategyAblation struct {
	Kernels []string
	// Per kernel: gated fraction and IPC under each strategy at IQ=64.
	GatedMulti, GatedSingle       []float64
	IPCMulti, IPCSingle           []float64
	AvgGatedMulti, AvgGatedSingle float64
	AvgIPCMulti, AvgIPCSingle     float64
}

// AblationStrategy compares the paper's multi-iteration buffering against
// single-iteration buffering (§2.2.1) at IQ=64.
func (s *Suite) AblationStrategy() (*StrategyAblation, error) {
	const iq = 64
	a := &StrategyAblation{Kernels: KernelNames()}
	var specs []Spec
	for _, k := range a.Kernels {
		specs = append(specs,
			Spec{Kernel: k, IQSize: iq, Reuse: true, Strategy: core.StrategyMulti, NBLTSize: -1},
			Spec{Kernel: k, IQSize: iq, Reuse: true, Strategy: core.StrategySingle, NBLTSize: -1})
	}
	if err := s.Prewarm(specs); err != nil {
		return nil, err
	}
	n := 0.0
	for _, k := range a.Kernels {
		multi := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, Strategy: core.StrategyMulti, NBLTSize: -1})
		single := s.cached(Spec{Kernel: k, IQSize: iq, Reuse: true, Strategy: core.StrategySingle, NBLTSize: -1})
		if multi.Failed() || single.Failed() {
			a.GatedMulti = append(a.GatedMulti, math.NaN())
			a.GatedSingle = append(a.GatedSingle, math.NaN())
			a.IPCMulti = append(a.IPCMulti, math.NaN())
			a.IPCSingle = append(a.IPCSingle, math.NaN())
			continue
		}
		a.GatedMulti = append(a.GatedMulti, multi.Gated)
		a.GatedSingle = append(a.GatedSingle, single.Gated)
		a.IPCMulti = append(a.IPCMulti, multi.IPC)
		a.IPCSingle = append(a.IPCSingle, single.IPC)
		a.AvgGatedMulti += multi.Gated
		a.AvgGatedSingle += single.Gated
		a.AvgIPCMulti += multi.IPC
		a.AvgIPCSingle += single.IPC
		n++
	}
	if n == 0 {
		n = math.NaN()
	}
	a.AvgGatedMulti /= n
	a.AvgGatedSingle /= n
	a.AvgIPCMulti /= n
	a.AvgIPCSingle /= n
	return a, nil
}

func (a *StrategyAblation) String() string {
	var b strings.Builder
	b.WriteString("Ablation A2: multi- vs single-iteration buffering (IQ=64)\n")
	fmt.Fprintf(&b, "  %-8s  %11s  %11s  %9s  %9s\n", "", "gated multi", "gated single", "IPC multi", "IPC single")
	for i, k := range a.Kernels {
		fmt.Fprintf(&b, "  %-8s  %s  %s  %s  %s\n",
			k, pct(a.GatedMulti[i], "%10.1f%%", 11), pct(a.GatedSingle[i], "%11.1f%%", 12),
			num(a.IPCMulti[i], "%9.2f", 9), num(a.IPCSingle[i], "%9.2f", 9))
	}
	fmt.Fprintf(&b, "  %-8s  %s  %s  %s  %s\n",
		"average", pct(a.AvgGatedMulti, "%10.1f%%", 11), pct(a.AvgGatedSingle, "%11.1f%%", 12),
		num(a.AvgIPCMulti, "%9.2f", 9), num(a.AvgIPCSingle, "%9.2f", 9))
	return b.String()
}
