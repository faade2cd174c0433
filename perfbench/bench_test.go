package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"testing"

	"reuseiq/internal/experiments"
)

func testPins(t *testing.T) pins {
	t.Helper()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// smokeWorkloads are the four workloads cut down to seconds: one cell for
// the direct ones, Figure 5 at IQ 32 for the suite ones.
func smokeWorkloads(t *testing.T) map[string]workload {
	p := testPins(t)
	fig5, err := expectedText("durable-sweep.txt")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDurable(p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]workload{
		"small-iq": &direct{cells: []cell{{"aps", "orig", 32, "reuse", 8}}, pins: p},
		"large-iq": &direct{cells: []cell{{"tsf", "orig", 128, "reuse", 8}}, pins: p},
		"paper-figures": &report{
			sections: []section{{"figure5", false, func(s *experiments.Suite) (stringer, error) { return s.Figure5([]int{32}) }}},
			cells:    figure5Cells(32), pins: p, text: fig5 + "\n",
		},
		"durable-sweep": d,
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(ms map[string]metric) map[string]string {
	u := map[string]string{}
	for n, m := range ms {
		u[n] = m.Unit
	}
	return u
}

// TestSmoke checks every BENCHMARK.json workload exists, then runs every
// workload, untraced and traced, on a few cells: each prints exactly the
// metrics BENCHMARK.json names, with their units, counts no failed cell, and
// its traced pass reproduces the untraced modeled counts (measureLayers
// counts a mismatch as a failed check).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	b := readBenchmarkFile(t)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, testPins(t)); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	for name, w := range smokeWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, name, 7, 1, traced, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				want := wantE2E
				if traced {
					want = wantLayer
				}
				if got := units(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: metrics %v, BENCHMARK.json names %v", traced, got, want)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if traced && res.Metrics["sim.cycles"].Value == 0 {
					t.Error("traced run reports no simulated cycles")
				}
			}
		})
	}
}

// TestAlteredPinFailsOneCell alters one pinned value: exactly that cell
// must be counted as failed.
func TestAlteredPinFailsOneCell(t *testing.T) {
	p := testPins(t)
	cs := []cell{{"aps", "orig", 32, "base", 8}, {"aps", "orig", 32, "reuse", 8}}
	altered := pins{}
	for id, o := range p {
		altered[id] = o
	}
	o := altered[cs[1].id()]
	o.Counters = "0000000000000000"
	altered[cs[1].id()] = o

	w := &direct{cells: cs, pins: altered}
	inst, err := w.setup(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := inst.run(rand.New(rand.NewPCG(1, 0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("one pass: attempted=%d failed=%d, want 2/1 (%v)", tl.attempted, tl.failed, tl.errs)
	}

	// Every pass of a run counts the altered cell once more.
	res, err := runWorkload(w, "small-iq", 1, 1, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2*res.Failed {
		t.Fatalf("run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestCellOrderDoesNotMatter runs small-iq cells of both IQ sizes in two
// seeds' orders. Machines reuse pooled workspace buffers across IQ sizes, so
// identical per-cell counters show no state carries from cell to cell.
func TestCellOrderDoesNotMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var cs []cell
	for _, c := range smallIQCells() {
		if c.Kernel == "tsf" || c.Kernel == "wss" {
			cs = append(cs, c)
		}
	}
	w := &direct{cells: cs, pins: testPins(t)}
	var got []map[string]outcome
	var orders [][]int
	for _, seed := range []uint64{1, 2} {
		inst, err := w.setup(nil, "")
		if err != nil {
			t.Fatal(err)
		}
		tl, err := inst.run(rand.New(rand.NewPCG(seed, 0)), nil)
		if err != nil || tl.failed != 0 {
			t.Fatalf("seed %d: %v %v", seed, err, tl.errs)
		}
		got = append(got, inst.(*directPass).outcomes)
		orders = append(orders, rand.New(rand.NewPCG(seed, 0)).Perm(len(cs)))
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Fatal("both seeds visit the cells in the same order")
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("per-cell counters depend on the cell order")
	}
}

// TestSuiteCellsArePinned checks every cell the report's suite caches has a
// pin, so a missing pin cannot pass as a silent skip.
func TestSuiteCellsArePinned(t *testing.T) {
	p := testPins(t)
	r, err := newReport(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cells) != 120 {
		t.Errorf("report checks %d suite cells, want 120", len(r.cells))
	}
	all := append(smallIQCells(), largeIQCells()...)
	var missing []string
	for _, c := range all {
		if _, ok := p[c.id()]; !ok {
			missing = append(missing, c.id())
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 || len(p) != len(all) {
		t.Errorf("%d pins for %d cells; missing %v", len(p), len(all), missing)
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	if code := mainImpl([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}
