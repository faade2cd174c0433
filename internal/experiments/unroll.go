package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"reuseiq/internal/compiler"
	"reuseiq/internal/power"
	"reuseiq/internal/prog"
	"reuseiq/internal/workloads"
)

// UnrollAblation (A3) contrasts the paper's *hardware* loop unrolling
// (multi-iteration buffering automatically unrolls the loop into the issue
// queue, §2.2.1) with *software* unrolling by the compiler: unrolled code
// enlarges the static loop body, so small-loop kernels can stop fitting the
// queue — the opposite of loop distribution. Measured at IQ=64 with the
// reuse mechanism on.
type UnrollAblation struct {
	Kernels                            []string
	Factor                             int
	GatedOriginal                      []float64
	GatedUnrolled                      []float64
	SaveOriginal                       []float64 // overall power saving vs matching baseline
	SaveUnrolled                       []float64
	AvgGatedOriginal, AvgGatedUnrolled float64
	AvgSaveOriginal, AvgSaveUnrolled   float64
}

// AblationUnroll runs the software-unrolling ablation. The original code's
// runs are the suite's IQ-64 cells; the unrolled code runs on the suite's
// pool, uncached.
func (s *Suite) AblationUnroll(factor int) (*UnrollAblation, error) {
	const iq = 64
	a := &UnrollAblation{Kernels: KernelNames(), Factor: factor}
	specs := pairSpecs(a.Kernels, iq)
	progs := make([]*prog.Program, len(a.Kernels))
	for i, k := range a.Kernels {
		w, _ := workloads.ByName(k)
		mp, _, err := compiler.Compile(compiler.Unroll(w.Prog, factor))
		if err != nil {
			return nil, fmt.Errorf("experiments: unroll %s: %w", k, err)
		}
		progs[i] = mp
	}
	if err := s.Prewarm(specs); err != nil {
		return nil, err
	}
	// unrolled[i] runs specs[i]'s configuration on the unrolled code.
	unrolled := make([]RunResult, len(specs))
	label := func(i int) string { return fmt.Sprintf("%s unroll%d", specLabel(specs[i]), factor) }
	err := s.each(len(specs), label, func(i int) (err error) {
		unrolled[i], err = simulate(label(i), specs[i].config(), progs[i/2])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range a.Kernels {
		base, reuse := s.cached(specs[2*i]), s.cached(specs[2*i+1])
		gated, save := math.NaN(), math.NaN()
		if !base.Failed() && !reuse.Failed() {
			gated, save = reuse.Gated, power.Compare(base.Power, reuse.Power).Overall
		}
		a.GatedOriginal = append(a.GatedOriginal, gated)
		a.SaveOriginal = append(a.SaveOriginal, save)
		a.GatedUnrolled = append(a.GatedUnrolled, unrolled[2*i+1].Gated)
		a.SaveUnrolled = append(a.SaveUnrolled, power.Compare(unrolled[2*i].Power, unrolled[2*i+1].Power).Overall)
	}
	a.AvgGatedOriginal, a.AvgGatedUnrolled = mean(a.GatedOriginal), mean(a.GatedUnrolled)
	a.AvgSaveOriginal, a.AvgSaveUnrolled = mean(a.SaveOriginal), mean(a.SaveUnrolled)
	return a, nil
}

// pairSpecs lists each kernel's baseline and reuse cells at one IQ size.
func pairSpecs(kernels []string, iq int) []Spec {
	var specs []Spec
	for _, k := range kernels {
		specs = append(specs, Spec{Kernel: k, IQSize: iq, NBLTSize: -1}, Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: -1})
	}
	return specs
}

// mean averages vs as a running sum of v/n, skipping failed (NaN) cells: the
// arithmetic A3, X1 and the NBLT size sweep were pinned with.
func mean(vs []float64) float64 {
	ok := slices.DeleteFunc(slices.Clone(vs), math.IsNaN)
	if len(ok) == 0 {
		return math.NaN()
	}
	m := 0.0
	for _, v := range ok {
		m += v / float64(len(ok))
	}
	return m
}

func (a *UnrollAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3: software unrolling x%d vs hardware unrolling (IQ=64)\n", a.Factor)
	fmt.Fprintf(&b, "  %-8s  %11s  %11s  %10s  %10s\n", "",
		"gated orig", fmt.Sprintf("gated x%d", a.Factor),
		"save orig", fmt.Sprintf("save x%d", a.Factor))
	row := func(name string, gOrig, gUnr, sOrig, sUnr float64) {
		fmt.Fprintf(&b, "  %-8s  %s  %s  %s  %s\n", name,
			pct(gOrig, "%10.1f%%", 11), pct(gUnr, "%10.1f%%", 11),
			pct(sOrig, "%9.1f%%", 10), pct(sUnr, "%9.1f%%", 10))
	}
	for i, k := range a.Kernels {
		row(k, a.GatedOriginal[i], a.GatedUnrolled[i], a.SaveOriginal[i], a.SaveUnrolled[i])
	}
	row("average", a.AvgGatedOriginal, a.AvgGatedUnrolled, a.AvgSaveOriginal, a.AvgSaveUnrolled)
	return b.String()
}

// NBLTSizeSweep measures how the revoke rate and gated fraction move as the
// non-bufferable loop table grows from 0 to 16 entries (the paper fixes 8;
// this shows the knee). Averaged over all kernels at IQ=64.
type NBLTSizeSweep struct {
	Sizes      []int
	RevokeRate []float64
	Gated      []float64
}

// SweepNBLTSizes runs the NBLT size sweep. A failed cell is left out of its
// size's averages.
func (s *Suite) SweepNBLTSizes(sizes []int) (*NBLTSizeSweep, error) {
	const iq = 64
	sw := &NBLTSizeSweep{Sizes: sizes}
	names := KernelNames()
	var specs []Spec
	for _, nblt := range sizes {
		for _, k := range names {
			specs = append(specs, Spec{Kernel: k, IQSize: iq, Reuse: true, NBLTSize: nblt})
		}
	}
	if err := s.Prewarm(specs); err != nil {
		return nil, err
	}
	n := len(names)
	for i := range sizes {
		rate, gated := make([]float64, n), make([]float64, n)
		for k, sp := range specs[i*n : (i+1)*n] {
			r := s.cached(sp)
			if r.Core.Bufferings > 0 {
				rate[k] = float64(r.Core.Revokes) / float64(r.Core.Bufferings)
			}
			gated[k] = r.Gated
			if r.Failed() {
				rate[k], gated[k] = math.NaN(), math.NaN()
			}
		}
		sw.RevokeRate = append(sw.RevokeRate, mean(rate))
		sw.Gated = append(sw.Gated, mean(gated))
	}
	return sw, nil
}

func (sw *NBLTSizeSweep) String() string {
	var b strings.Builder
	b.WriteString("NBLT size sweep (IQ=64, averages over benchmarks)\n")
	fmt.Fprintf(&b, "  %-8s", "entries")
	for _, s := range sw.Sizes {
		fmt.Fprintf(&b, "  %6d", s)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-8s", "revoke")
	for _, v := range sw.RevokeRate {
		b.WriteString("  " + pct(v, "%5.1f%%", 6))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-8s", "gated")
	for _, v := range sw.Gated {
		b.WriteString("  " + pct(v, "%5.1f%%", 6))
	}
	b.WriteString("\n")
	return b.String()
}
