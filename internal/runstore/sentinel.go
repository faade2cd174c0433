package runstore

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// observerPrefixes are the metric namespaces that legitimately vary between
// fingerprint-identical runs: they count the work of observers (telemetry
// tracer, flight recorder, obs sampler, snapshot engine). Every other
// namespace is modeled state and must be bit-identical between
// fingerprint-identical runs.
var observerPrefixes = []string{
	// Ledgers written while the retired fast-forward engine existed carry
	// ffwd.* counters on engine-on runs only; without this prefix a modeled
	// counter missing from one record would count as drift.
	"ffwd.",
	"flightrec.",
	"telemetry.",
	"snapshot.",
	"sweep.",
	"obs.",
	"hist.",
}

// Modeled reports whether the named metric is part of the deterministic
// modeled-state contract (as opposed to observer- or host-dependent).
func Modeled(name string) bool {
	for _, p := range observerPrefixes {
		if strings.HasPrefix(name, p) {
			return false
		}
	}
	return true
}

// Drift is one sentinel failure: a modeled value that differs between two
// fingerprint-identical runs. Drift in a modeled counter means the simulator
// is no longer deterministic over its modeled inputs — a correctness bug,
// not a perf regression.
type Drift struct {
	Name string // counter name, or "energy.<component>"
	// BaseID/RunID identify the two records; Base/Run render their values.
	BaseID, RunID string
	Base, Run     string
}

func (d Drift) String() string {
	return fmt.Sprintf("%s: %s=%s vs %s=%s", d.Name, d.BaseID, d.Base, d.RunID, d.Run)
}

// Outlier is one wall-time outlier under the median/MAD test (report-only:
// host timing is allowed to vary, an outlier is a hint, not a failure).
type Outlier struct {
	RunID  string
	WallNS int64
	Z      float64 // robust z-score |x-med| / (1.4826 * MAD)
}

// Group is the sentinel's verdict for one fingerprint: the set of
// fingerprint-identical runs and everything that disagrees between them.
type Group struct {
	Fingerprint string
	Kernel      string
	RunIDs      []string
	Skipped     []string // runs excluded because they recorded an error
	Drifts      []Drift
	// Wall-time statistics over the group (NS). Outliers is non-empty only
	// when the group has at least four runs (MAD needs a real sample).
	WallMedianNS int64
	WallMADNS    int64
	Outliers     []Outlier
}

// Report is a full sentinel pass over a set of records.
type Report struct {
	Groups []Group
	// Singles counts fingerprints with only one run (nothing to compare).
	Singles int
}

// Pass reports whether no group drifted. Wall-time outliers do not fail the
// sentinel.
func (r *Report) Pass() bool {
	for _, g := range r.Groups {
		if len(g.Drifts) > 0 {
			return false
		}
	}
	return true
}

// Drifts returns every drift across all groups.
func (r *Report) Drifts() []Drift {
	var out []Drift
	for _, g := range r.Groups {
		out = append(out, g.Drifts...)
	}
	return out
}

// WriteText renders the report as an aligned terminal table: one row per
// fingerprint group, with drift and wall-outlier detail lines beneath the
// rows that have them.
func (r *Report) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "fingerprint\tkernel\truns\twall median\tverdict")
	for _, g := range r.Groups {
		verdict := "ok"
		switch {
		case len(g.Drifts) > 0:
			verdict = fmt.Sprintf("DRIFT (%d)", len(g.Drifts))
		case len(g.Outliers) > 0:
			verdict = fmt.Sprintf("ok, %d wall outlier(s)", len(g.Outliers))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\n",
			g.Fingerprint, g.Kernel, len(g.RunIDs),
			time.Duration(g.WallMedianNS).Round(time.Microsecond), verdict)
		for _, d := range g.Drifts {
			fmt.Fprintf(tw, "  drift\t%s\t\t\t\n", d)
		}
		for _, o := range g.Outliers {
			fmt.Fprintf(tw, "  outlier\t%s: wall %s (z=%.1f)\t\t\t\n",
				o.RunID, time.Duration(o.WallNS).Round(time.Microsecond), o.Z)
		}
		if len(g.Skipped) > 0 {
			fmt.Fprintf(tw, "  skipped\t%s (recorded errors)\t\t\t\n", strings.Join(g.Skipped, " "))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "sentinel: %s (%d comparable group(s), %d single run(s))\n",
		verdict, len(r.Groups), r.Singles)
	return err
}

// Sentinel runs the regression sentinel over recs: records are grouped by
// fingerprint, and within each group every modeled counter, modeled gauge,
// energy component and headline result must be bit-identical across runs
// (the chaos seed is part of the config hash, so even fault-injected runs
// repeat exactly). Wall times get a median/MAD robust outlier test instead —
// host timing legitimately varies.
//
//reuse:deterministic
func Sentinel(recs []Record) *Report {
	byFP := make(map[string][]*Record)
	var order []string
	for i := range recs {
		fp := recs[i].Fingerprint
		if _, ok := byFP[fp]; !ok {
			order = append(order, fp)
		}
		byFP[fp] = append(byFP[fp], &recs[i])
	}
	rep := &Report{}
	for _, fp := range order {
		group := byFP[fp]
		g := Group{Fingerprint: fp}
		var runs []*Record
		for _, r := range group {
			if r.Err != "" {
				g.Skipped = append(g.Skipped, r.ID)
				continue
			}
			if g.Kernel == "" {
				g.Kernel = r.Kernel
			}
			g.RunIDs = append(g.RunIDs, r.ID)
			runs = append(runs, r)
		}
		if len(runs) < 2 {
			if len(runs) == 1 {
				rep.Singles++
			}
			continue
		}
		base := runs[0]
		for _, run := range runs[1:] {
			g.Drifts = append(g.Drifts, compareModeled(base, run)...)
		}
		g.WallMedianNS, g.WallMADNS, g.Outliers = wallOutliers(runs)
		rep.Groups = append(rep.Groups, g)
	}
	return rep
}

// compareModeled returns every modeled disagreement between two
// fingerprint-identical runs.
func compareModeled(base, run *Record) []Drift {
	var drifts []Drift
	drift := func(name, b, r string) {
		drifts = append(drifts, Drift{Name: name, BaseID: base.ID, RunID: run.ID, Base: b, Run: r})
	}

	// Headline results first: cheap, and the most readable failure.
	if base.Cycles != run.Cycles {
		drift("sim.cycles", fmt.Sprint(base.Cycles), fmt.Sprint(run.Cycles))
	}
	if base.Commits != run.Commits {
		drift("sim.commits", fmt.Sprint(base.Commits), fmt.Sprint(run.Commits))
	}

	// Modeled counters: equal name sets and bit-identical values. A counter
	// present on one side only is itself drift — a silently vanishing
	// counter must not pass the oracle.
	bc := modeledCounters(&base.Metrics)
	rc := modeledCounters(&run.Metrics)
	names := make([]string, 0, len(bc))
	for n := range bc {
		names = append(names, n)
	}
	for n := range rc {
		if _, ok := bc[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		// sim.cycles/sim.commits already reported via the headline fields.
		if n == "sim.cycles" || n == "sim.commits" {
			continue
		}
		bv, bok := bc[n]
		rv, rok := rc[n]
		switch {
		case !bok:
			drift(n, "(absent)", fmt.Sprint(rv))
		case !rok:
			drift(n, fmt.Sprint(bv), "(absent)")
		case bv != rv:
			drift(n, fmt.Sprint(bv), fmt.Sprint(rv))
		}
	}

	// Modeled gauges and per-component energy: floats, compared by bit
	// pattern — the determinism contract is bit-identical, not "close".
	bg := modeledGauges(&base.Metrics)
	rg := modeledGauges(&run.Metrics)
	for _, n := range sortedKeysF(bg, rg) {
		bv, bok := bg[n]
		rv, rok := rg[n]
		if !bok || !rok || math.Float64bits(bv) != math.Float64bits(rv) {
			drift(n, fmtFloat(bv, bok), fmtFloat(rv, rok))
		}
	}
	for _, n := range sortedKeysF(base.Energy, run.Energy) {
		bv, bok := base.Energy[n]
		rv, rok := run.Energy[n]
		if !bok || !rok || math.Float64bits(bv) != math.Float64bits(rv) {
			drift("energy."+n, fmtFloat(bv, bok), fmtFloat(rv, rok))
		}
	}
	return drifts
}

func modeledCounters(m *Metrics) map[string]uint64 {
	out := make(map[string]uint64, len(m.Counters))
	for _, c := range m.Counters {
		if Modeled(c.Name) {
			out[c.Name] = c.Value
		}
	}
	return out
}

func modeledGauges(m *Metrics) map[string]float64 {
	out := make(map[string]float64, len(m.Gauges))
	for _, g := range m.Gauges {
		if Modeled(g.Name) {
			out[g.Name] = g.Value
		}
	}
	return out
}

func sortedKeysF(a, b map[string]float64) []string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	for n := range b {
		if _, ok := a[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func fmtFloat(v float64, ok bool) string {
	if !ok {
		return "(absent)"
	}
	return fmt.Sprintf("%g", v)
}

// wallOutliers runs the median/MAD robust outlier test over the group's wall
// times. With fewer than four runs the statistics are meaningless, so no
// outliers are reported (the median still is).
func wallOutliers(runs []*Record) (median, mad int64, outliers []Outlier) {
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = float64(r.Host.WallNS)
	}
	med := medianOf(walls)
	devs := make([]float64, len(walls))
	for i, w := range walls {
		devs[i] = math.Abs(w - med)
	}
	madF := medianOf(devs)
	median, mad = int64(med), int64(madF)
	if len(runs) < 4 {
		return median, mad, nil
	}
	for i, r := range runs {
		var z float64
		if madF > 0 {
			z = devs[i] / (1.4826 * madF)
		} else if devs[i] > 0 {
			z = math.Inf(1)
		}
		// Require both a large robust z and a material relative deviation:
		// on fast runs the MAD can be a few microseconds, where a huge z is
		// still noise.
		if z > 3.5 && med > 0 && devs[i]/med > 0.20 {
			outliers = append(outliers, Outlier{RunID: r.ID, WallNS: r.Host.WallNS, Z: z})
		}
	}
	return median, mad, outliers
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
