package runstore

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"reuseiq/internal/cell"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
)

// ConvertMetrics copies a telemetry snapshot into the ledger's JSON-tagged
// form.
func ConvertMetrics(ms *telemetry.MetricsSnapshot) Metrics {
	m := Metrics{Counters: make([]Counter, len(ms.Counters))}
	for i, c := range ms.Counters {
		m.Counters[i] = Counter{Name: c.Name, Value: c.Value}
	}
	if len(ms.Gauges) > 0 {
		m.Gauges = make([]Gauge, len(ms.Gauges))
		for i, g := range ms.Gauges {
			m.Gauges[i] = Gauge{Name: g.Name, Value: g.Value}
		}
	}
	if len(ms.Hists) > 0 {
		m.Hists = make([]Hist, len(ms.Hists))
		for i, h := range ms.Hists {
			buckets := make([]HistBucket, len(h.Buckets))
			for j, b := range h.Buckets {
				buckets[j] = HistBucket{LE: b.LE, Inf: b.IsInf, Count: b.Count}
			}
			m.Hists[i] = Hist{Name: h.Name, Buckets: buckets, Count: h.Count, Sum: h.Sum, Max: h.Max}
		}
	}
	return m
}

// EnergyMap converts a power report into the ledger's by-name energy map,
// with the run total under "total".
func EnergyMap(pr power.Report) map[string]float64 {
	e := make(map[string]float64, int(power.NumComponents)+1)
	for c := power.Component(0); c < power.NumComponents; c++ {
		e[c.String()] = pr.Energy[c]
	}
	e["total"] = pr.Total()
	return e
}

// ReportOf inverts EnergyMap: the power report whose per-component energies
// e holds, for a run of the given cycles and commits. A component missing
// from e is an error, not a zero.
func ReportOf(e map[string]float64, cycles, commits uint64) (power.Report, error) {
	pr := power.Report{Cycles: cycles, Commits: commits}
	for c := power.Component(0); c < power.NumComponents; c++ {
		v, ok := e[c.String()]
		if !ok {
			return power.Report{}, fmt.Errorf("no %s energy", c)
		}
		pr.Energy[c] = v
	}
	return pr, nil
}

// FromMachine captures a finished machine that ran the cell sp as a ledger
// record: identity, fingerprint, full metrics snapshot, energy attribution,
// headline results and host provenance. The caller fills Kind, the mode
// flags the machine can't see (FlightRec, Verified, Retried) and WallNS.
func FromMachine(sp cell.Spec, m *pipeline.Machine) Record {
	reg := &telemetry.Registry{}
	m.RegisterMetrics(reg)
	hostname, _ := os.Hostname()
	rec := Record{
		Start:       time.Now().UTC(),
		Spec:        sp,
		Strategy:    int(sp.Strategy),
		Fingerprint: snapshot.FingerprintOf(m.Cfg, m.Prog).String(),
		Cycles:      m.C.Cycles,
		Commits:     m.C.Commits,
		IPC:         m.IPC(),
		Gated:       m.GatedFraction(),
		Metrics:     ConvertMetrics(reg.TypedSnapshot()),
		Energy:      EnergyMap(power.Analyze(m)),
		Host: Host{
			Hostname:  hostname,
			GoOS:      runtime.GOOS,
			GoArch:    runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			GoVersion: runtime.Version(),
		},
	}
	return rec
}
