package runstore

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// DiffRow is one metric compared across two runs (or two run-sets, where the
// values are per-set means).
type DiffRow struct {
	Name     string
	A, B     float64
	AOK, BOK bool
	Integer  bool // render as integers (counters), not floats
}

// Delta returns B - A.
func (r DiffRow) Delta() float64 { return r.B - r.A }

// Pct returns the relative change in percent (NaN when A is zero).
func (r DiffRow) Pct() float64 {
	if r.A == 0 {
		return math.NaN()
	}
	return 100 * (r.B - r.A) / r.A
}

// Changed reports whether the row differs between the two sides.
func (r DiffRow) Changed() bool {
	return r.AOK != r.BOK || math.Float64bits(r.A) != math.Float64bits(r.B)
}

// DiffReport is a counter-by-counter comparison of two runs or run-sets.
type DiffReport struct {
	ALabel, BLabel string
	// ACount/BCount are the set sizes (1 for single-run diffs; means are
	// reported for larger sets).
	ACount, BCount int
	Rows           []DiffRow
}

// Changed returns only the rows that differ.
func (d *DiffReport) Changed() []DiffRow {
	var out []DiffRow
	for _, r := range d.Rows {
		if r.Changed() {
			out = append(out, r)
		}
	}
	return out
}

// Diff compares two run-sets counter by counter. Each side's counters,
// gauges and energy components are averaged over the set (a single-record
// set is just that record's values), then every name present on either side
// becomes a row. Wall time joins as "host.wall_ns" so host cost shows up in
// the same table, clearly namespaced as non-modeled.
func Diff(a, b []Record) *DiffReport {
	d := &DiffReport{
		ALabel: setLabel(a), BLabel: setLabel(b),
		ACount: len(a), BCount: len(b),
	}
	av, ai := setMeans(a)
	bv, bi := setMeans(b)
	names := make([]string, 0, len(av))
	for n := range av {
		names = append(names, n)
	}
	for n := range bv {
		if _, ok := av[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, xok := av[n]
		y, yok := bv[n]
		d.Rows = append(d.Rows, DiffRow{
			Name: n, A: x, B: y, AOK: xok, BOK: yok,
			Integer: ai[n] || bi[n],
		})
	}
	return d
}

func setLabel(recs []Record) string {
	if len(recs) == 0 {
		return "(empty)"
	}
	r := recs[0]
	label := r.ID
	if len(recs) > 1 {
		label = fmt.Sprintf("%s +%d", r.ID, len(recs)-1)
	}
	if r.Kernel != "" {
		label = r.Kernel + " " + label
	}
	return label
}

// setMeans averages every metric over the set, returning values plus an
// is-integer marker per name (true when the name is a counter everywhere it
// appears and the mean is exact).
func setMeans(recs []Record) (map[string]float64, map[string]bool) {
	sums := map[string]float64{}
	counts := map[string]int{}
	isInt := map[string]bool{}
	add := func(name string, v float64, integer bool) {
		sums[name] += v
		counts[name]++
		if counts[name] == 1 {
			isInt[name] = integer
		} else if !integer {
			isInt[name] = false
		}
	}
	for i := range recs {
		r := &recs[i]
		for _, c := range r.Metrics.Counters {
			add(c.Name, float64(c.Value), true)
		}
		for _, g := range r.Metrics.Gauges {
			add(g.Name, g.Value, false)
		}
		for n, v := range r.Energy {
			add("energy."+n, v, false)
		}
		add("host.wall_ns", float64(r.Host.WallNS), true)
	}
	out := make(map[string]float64, len(sums))
	for n, s := range sums {
		out[n] = s / float64(counts[n])
		if counts[n] > 1 && out[n] != math.Trunc(out[n]) {
			isInt[n] = false
		}
	}
	return out, isInt
}

// WriteText renders the diff as an aligned terminal table. With changedOnly,
// identical rows are elided (the summary line still counts them).
func (d *DiffReport) WriteText(w io.Writer, changedOnly bool) error {
	rows := d.Rows
	if changedOnly {
		rows = d.Changed()
	}
	fmt.Fprintf(w, "A: %s (n=%d)   B: %s (n=%d)\n", d.ALabel, d.ACount, d.BLabel, d.BCount)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tA\tB\tdelta\t%\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n",
			r.Name, fmtValue(r.A, r.AOK, r.Integer), fmtValue(r.B, r.BOK, r.Integer),
			deltaCell(r), pctCell(r))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	changed := len(d.Changed())
	fmt.Fprintf(w, "%d metrics, %d changed\n", len(d.Rows), changed)
	return nil
}

func fmtValue(v float64, ok, integer bool) string {
	if !ok {
		return "-"
	}
	if integer {
		return fmt.Sprintf("%.0f", v)
	}
	return trimFloat(v)
}

func deltaCell(r DiffRow) string {
	if !r.AOK || !r.BOK {
		return "-"
	}
	dl := r.Delta()
	if dl == 0 {
		return "0"
	}
	if r.Integer {
		return fmt.Sprintf("%+.0f", dl)
	}
	if dl > 0 {
		return "+" + trimFloat(dl)
	}
	return trimFloat(dl)
}

func pctCell(r DiffRow) string {
	if !r.AOK || !r.BOK || r.Delta() == 0 {
		return ""
	}
	p := r.Pct()
	if math.IsNaN(p) {
		return "new"
	}
	return fmt.Sprintf("%+.2f%%", p)
}

// trimFloat renders a float compactly: fixed 3 decimals with trailing zeros
// trimmed, so tables stay narrow without losing the signal digits.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
