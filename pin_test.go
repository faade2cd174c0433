//go:build !race

// The race detector slows a simulation about 15 times, which would make
// these 64 full-kernel runs the longest test of a -race pass; plain
// `go test` exercises them.

package reuseiq

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"reuseiq/internal/compiler"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/workloads"
)

// TestFigure5CounterPins simulates Figure 5's cells at all four queue sizes
// (IQ 32, 64, 128 and 256), every kernel with and without reuse, through the path reusesim drives
// (compiler.Compile, pipeline.New, Run, power.Analyze), and compares a
// digest of each cell's counters and energy report with the benchmark's
// pinned outcomes in perfbench/expected/cells.json. A change that only
// speeds the simulator up must leave every modeled count as it was; this
// catches one that does not in `go test`, not only in the benchmark.
func TestFigure5CounterPins(t *testing.T) {
	raw, err := os.ReadFile("perfbench/expected/cells.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]struct {
		Counters string `json:"counters"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	for _, k := range workloads.All() {
		p, _, err := compiler.Compile(k.Prog)
		if err != nil {
			t.Fatalf("compile %s: %v", k.Name, err)
		}
		for _, iq := range []int{32, 64, 128, 256} {
			for _, reuse := range []bool{false, true} {
				mode := "base"
				if reuse {
					mode = "reuse"
				}
				id := fmt.Sprintf("%s/orig/iq%d/%s/nblt8", k.Name, iq, mode)
				t.Run(id, func(t *testing.T) {
					t.Parallel()
					pin, ok := pins[id]
					if !ok {
						t.Fatalf("no pinned outcome for %s", id)
					}
					cfg := pipeline.BaselineConfig().WithIQSize(iq)
					cfg.Reuse.NBLTSize = 8
					cfg.Reuse.Enabled = reuse
					m := pipeline.New(cfg, p)
					defer m.Release()
					if err := m.Run(); err != nil {
						t.Fatal(err)
					}
					if got := digestCounters(m, power.Analyze(m)); got != pin.Counters {
						t.Errorf("counters digest %s, pinned %s", got, pin.Counters)
					}
				})
			}
		}
	}
}

// digestCounters hashes every counter m registers, then the energy report,
// with the recipe perfbench pins its cells by.
func digestCounters(m *pipeline.Machine, rep power.Report) string {
	reg := &telemetry.Registry{}
	m.RegisterMetrics(reg)
	h := fnv.New64a()
	for _, c := range reg.TypedSnapshot().Counters {
		fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
	}
	for _, e := range rep.Energy {
		fmt.Fprintf(h, "%x\n", math.Float64bits(e))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
