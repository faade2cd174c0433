package experiments

import (
	"fmt"
	"math"
	"strings"

	"reuseiq/internal/altfe"
	"reuseiq/internal/mem"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
)

// FrontEndComparison is an extension experiment (not a figure in the paper):
// it puts the paper's reuse-capable issue queue side by side with the two
// prior-art front-end power mechanisms its introduction cites — a 512B
// filter cache and a 32-entry dynamic loop cache — on the same kernels and
// machine (IQ=64). Reported per kernel: instruction-cache power savings,
// overall power savings, and IPC change, each versus the plain baseline.
type FrontEndComparison struct {
	Kernels []string
	// Indexed [kernel][mechanism]; mechanisms: filter, loopcache, reuse.
	ICacheSave  map[string][3]float64
	OverallSave map[string][3]float64 // per-cycle power (the paper's metric)
	EPISave     map[string][3]float64 // energy per instruction (fair under slowdown)
	IPCDelta    map[string][3]float64 // negative = slower than baseline
	AvgICache   [3]float64
	AvgOverall  [3]float64
	AvgEPI      [3]float64
	AvgIPC      [3]float64
}

// MechanismNames labels the comparison columns.
var MechanismNames = [3]string{"filter", "loopcache", "reuse-iq"}

// CompareFrontEnds runs the comparison at the paper's baseline configuration.
// The baseline and reuse-iq runs are the suite's IQ-64 cells; the filter and
// loop caches run on the suite's pool, outside its cache.
func (s *Suite) CompareFrontEnds() (*FrontEndComparison, error) {
	const iq = 64
	f := &FrontEndComparison{
		Kernels:     KernelNames(),
		ICacheSave:  map[string][3]float64{},
		OverallSave: map[string][3]float64{},
		EPISave:     map[string][3]float64{},
		IPCDelta:    map[string][3]float64{},
	}
	// The prior-art front ends and their own instruction buffers.
	alts := [2]func(*pipeline.Config){
		func(c *pipeline.Config) { c.Mem.L0I = mem.DefaultFilterCache() },
		func(c *pipeline.Config) { c.LoopCache = &altfe.LoopCacheConfig{Entries: 32} },
	}
	buffers := [2]power.Component{power.FilterCache, power.LoopCacheBuf}
	specs := pairSpecs(f.Kernels, iq)
	if err := s.Prewarm(specs); err != nil {
		return nil, err
	}
	// alt[i] runs kernel i/2 with front end alts[i%2].
	alt := make([]RunResult, 2*len(f.Kernels))
	label := func(i int) string { return fmt.Sprintf("%s iq=%d %s", f.Kernels[i/2], iq, MechanismNames[i%2]) }
	err := s.each(len(alt), label, func(i int) error {
		mp, err := s.program(f.Kernels[i/2], false)
		if err != nil {
			return err
		}
		cfg := pipeline.BaselineConfig().WithIQSize(iq)
		alts[i%2](&cfg)
		alt[i], err = simulate(label(i), cfg, mp)
		return err
	})
	if err != nil {
		return nil, err
	}

	nan := math.NaN()
	for i, k := range f.Kernels {
		base := s.cached(specs[2*i])
		var ic, ov, epi, ipc [3]float64
		for m, r := range [3]RunResult{alt[2*i], alt[2*i+1], s.cached(specs[2*i+1])} {
			if base.Failed() || r.Failed() {
				ic[m], ov[m], epi[m], ipc[m] = nan, nan, nan, nan
				continue
			}
			sv := power.Compare(base.Power, r.Power)
			ic[m] = sv.Component[power.ICache]
			if m < len(buffers) {
				// A prior-art front end's "instruction cache" saving is
				// L1I plus its own buffer against the baseline L1I.
				combined := r.Power.PerCycle(power.ICache) + r.Power.PerCycle(buffers[m])
				ic[m] = 1 - combined/base.Power.PerCycle(power.ICache)
			}
			ov[m] = sv.Overall
			epi[m] = 1 - r.Power.EPI()/base.Power.EPI()
			ipc[m] = r.IPC/base.IPC - 1
		}
		f.ICacheSave[k] = ic
		f.OverallSave[k] = ov
		f.EPISave[k] = epi
		f.IPCDelta[k] = ipc
	}
	for m := range MechanismNames {
		col := func(vals map[string][3]float64) float64 {
			vs := make([]float64, len(f.Kernels))
			for i, k := range f.Kernels {
				vs[i] = vals[k][m]
			}
			return mean(vs)
		}
		f.AvgICache[m], f.AvgOverall[m] = col(f.ICacheSave), col(f.OverallSave)
		f.AvgEPI[m], f.AvgIPC[m] = col(f.EPISave), col(f.IPCDelta)
	}
	return f, nil
}

func (f *FrontEndComparison) String() string {
	var b strings.Builder
	row := func(name string, v [3]float64) {
		fmt.Fprintf(&b, "  %-8s  %s  %s  %s\n", name,
			pct(v[0], "%8.1f%%", 9), pct(v[1], "%8.1f%%", 9), pct(v[2], "%8.1f%%", 9))
	}
	table := func(vals map[string][3]float64, avg [3]float64) {
		for _, k := range f.Kernels {
			row(k, vals[k])
		}
		row("average", avg)
	}
	b.WriteString("Extension: reuse issue queue vs prior-art front ends (IQ=64, vs plain baseline)\n")
	b.WriteString("  icache power savings (incl. the mechanism's own buffer):\n")
	fmt.Fprintf(&b, "  %-8s  %9s  %9s  %9s\n", "", MechanismNames[0], MechanismNames[1], MechanismNames[2])
	table(f.ICacheSave, f.AvgICache)
	b.WriteString("  overall power savings:\n")
	table(f.OverallSave, f.AvgOverall)
	b.WriteString("  energy-per-instruction savings (fair under slowdowns):\n")
	table(f.EPISave, f.AvgEPI)
	fmt.Fprintf(&b, "  IPC vs baseline (average): %s  %s  %s\n",
		pct(f.AvgIPC[0], "%+.2f%%", 6), pct(f.AvgIPC[1], "%+.2f%%", 6), pct(f.AvgIPC[2], "%+.2f%%", 6))
	return b.String()
}
