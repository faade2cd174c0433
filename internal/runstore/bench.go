package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BenchSchemaVersion guards the machine-readable benchmark summaries
// (BENCH_simcore.json). Like ledger records they are
// versioned so a reader can refuse data it does not understand instead of
// mis-diffing it.
const BenchSchemaVersion = 1

// BenchSimcore is the sweep throughput summary reusebench writes, and the
// only bench record kind.
const BenchSimcore = "simcore"

// BenchThroughput is the simcore headline: whole-sweep simulation throughput.
type BenchThroughput struct {
	SimulatedCycles uint64  `json:"simulated_cycles"`
	WallNS          int64   `json:"wall_ns"`
	Wall            string  `json:"wall"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
	NSPerCycle      float64 `json:"ns_per_cycle"`
	AllocsPerCycle  float64 `json:"allocs_per_cycle"`
}

// BenchSection is one timed section of a simcore run.
type BenchSection struct {
	Name   string `json:"name"`
	Wall   string `json:"wall"`
	WallNS int64  `json:"wall_ns"`
}

// BenchRecord is the unified schema for the repo's machine-readable
// benchmark files: one versioned envelope whose kind selects the payload.
type BenchRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// Throughput and Sections are the simcore payload.
	Throughput *BenchThroughput `json:"throughput,omitempty"`
	Sections   []BenchSection   `json:"sections,omitempty"`
}

// Validate checks the envelope and the kind's payload shape.
func (b *BenchRecord) Validate() error {
	if b.V != BenchSchemaVersion {
		return fmt.Errorf("bench record version %d, this build reads %d", b.V, BenchSchemaVersion)
	}
	switch b.Kind {
	case BenchSimcore:
		if b.Throughput == nil {
			return fmt.Errorf("simcore record has no throughput block")
		}
		if b.Throughput.WallNS < 0 {
			return fmt.Errorf("simcore record has negative wall time")
		}
		for i, s := range b.Sections {
			if s.Name == "" {
				return fmt.Errorf("simcore section %d has no name", i)
			}
		}
	default:
		return fmt.Errorf("unknown bench record kind %q", b.Kind)
	}
	return nil
}

// ParseBenchRecord decodes and validates one bench record.
func ParseBenchRecord(data []byte) (*BenchRecord, error) {
	var b BenchRecord
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// ReadBenchRecord loads and validates a bench record file.
func ReadBenchRecord(path string) (*BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := ParseBenchRecord(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// WriteBenchRecord writes the record as indented JSON (the checked-in
// BENCH_*.json form).
func WriteBenchRecord(path string, b *BenchRecord) error {
	if err := b.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MetricValues flattens the record's payload into named values for diffing:
// simcore yields the throughput block plus per-section wall times.
func (b *BenchRecord) MetricValues() map[string]float64 {
	out := map[string]float64{}
	switch b.Kind {
	case BenchSimcore:
		t := b.Throughput
		out["simulated_cycles"] = float64(t.SimulatedCycles)
		out["wall_ns"] = float64(t.WallNS)
		out["cycles_per_sec"] = t.CyclesPerSec
		out["ns_per_cycle"] = t.NSPerCycle
		out["allocs_per_cycle"] = t.AllocsPerCycle
		for _, s := range b.Sections {
			out["section."+s.Name+".wall_ns"] = float64(s.WallNS)
		}
	}
	return out
}

// DiffBench compares two validated bench records of the same kind, returning
// rows in sorted name order.
func DiffBench(a, b *BenchRecord) (*DiffReport, error) {
	if a.Kind != b.Kind {
		return nil, fmt.Errorf("bench records have different kinds: %q vs %q", a.Kind, b.Kind)
	}
	av, bv := a.MetricValues(), b.MetricValues()
	d := &DiffReport{ALabel: a.Kind + " A", BLabel: b.Kind + " B", ACount: 1, BCount: 1}
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
		d.Rows = append(d.Rows, DiffRow{Name: n, A: x, B: y, AOK: xok, BOK: yok})
	}
	return d, nil
}
