package runstore

import (
	"os"
	"runtime"
	"time"

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

// FromMachine captures a finished machine as a ledger record: fingerprint,
// full metrics snapshot, energy attribution, headline results and host
// provenance. The caller fills the workload identity (Kernel, Kind), the mode
// flags the machine can't see (FlightRec, Verified, Retried) and Start/WallNS.
func FromMachine(m *pipeline.Machine) Record {
	reg := &telemetry.Registry{}
	m.RegisterMetrics(reg)
	hostname, _ := os.Hostname()
	rec := Record{
		Start:       time.Now().UTC(),
		IQSize:      m.Cfg.IQSize,
		Reuse:       m.Cfg.Reuse.Enabled,
		Strategy:    int(m.Cfg.Reuse.Strategy),
		NBLTSize:    m.Cfg.Reuse.NBLTSize,
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
	if m.Cfg.Chaos.Enabled {
		rec.ChaosSeed = m.Cfg.Chaos.Seed
	}
	return rec
}
