package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reuseiq/internal/obs/lintrules"
	"reuseiq/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenSamples builds a deterministic pair of samples exercising every
// exposition feature: counters, derived rates, float gauges, and a
// histogram with elided trailing buckets.
func goldenSamples() (cur, prev *Sample) {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	mk := func(cycles, commits uint64) *telemetry.MetricsSnapshot {
		r := &telemetry.Registry{}
		r.CounterVal("sim.cycles", cycles)
		r.CounterVal("sim.commits", commits)
		// A multi-segment dotted counter (a synthetic fixture; no live
		// component emits it), snapshot image traffic and flight recorder
		// progress ride the same exposition; pinning one of each family
		// here keeps their rendering contract golden.
		r.CounterVal("ffwd.vetoes.exact_state", cycles/1000)
		r.CounterVal("snapshot.saves", 7)
		r.CounterVal("snapshot.restores", 2)
		r.CounterVal("flightrec.checkpoints_taken", 5)
		r.Gauge("sweep.workers_busy", func() float64 { return 3 })
		r.Gauge("sim.ipc", func() float64 { return 1.75 })
		var h telemetry.Histogram
		for _, v := range []uint64{1, 2, 3, 40} {
			h.Observe(v)
		}
		r.RegisterHistogram("hist.session_cycles", &h)
		return r.TypedSnapshot()
	}
	prev = &Sample{At: base, Cycle: 1000, Metrics: mk(1000, 800)}
	cur = &Sample{At: base.Add(2 * time.Second), Cycle: 3000, Metrics: mk(3000, 2400)}
	return cur, prev
}

func TestExpositionGolden(t *testing.T) {
	cur, prev := goldenSamples()
	var buf bytes.Buffer
	if err := WriteExposition(&buf, cur, prev); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}

// The golden exposition must itself pass the linter — the formats the server
// emits and the checker accepts are one contract.
func TestExpositionGoldenLints(t *testing.T) {
	cur, prev := goldenSamples()
	var bPrev, bCur bytes.Buffer
	if err := WriteExposition(&bPrev, prev, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteExposition(&bCur, cur, prev); err != nil {
		t.Fatal(err)
	}
	mPrev, err := LintExposition(bPrev.Bytes())
	if err != nil {
		t.Fatalf("previous exposition fails lint: %v", err)
	}
	mCur, err := LintExposition(bCur.Bytes())
	if err != nil {
		t.Fatalf("current exposition fails lint: %v", err)
	}
	if err := CheckMonotone(mPrev, mCur); err != nil {
		t.Errorf("monotone check failed: %v", err)
	}

	c, ok := mCur["reuseiq_sim_cycles"]
	if !ok || c.Type != "counter" {
		t.Fatalf("reuseiq_sim_cycles missing or mistyped: %+v", mCur)
	}
	if got := c.Samples["reuseiq_sim_cycles"]; got != 3000 {
		t.Errorf("sim.cycles = %g, want 3000", got)
	}
	rate, ok := mCur["reuseiq_sim_cycles_per_second"]
	if !ok || rate.Type != "gauge" {
		t.Fatal("derived rate gauge missing")
	}
	if got := rate.Samples["reuseiq_sim_cycles_per_second"]; got != 1000 {
		t.Errorf("cycles/sec = %g, want 1000 (2000 cycles over 2s)", got)
	}
	h, ok := mCur["reuseiq_hist_session_cycles"]
	if !ok || h.Type != "histogram" {
		t.Fatal("histogram family missing")
	}
}

func TestExpositionNilSample(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LintExposition(buf.Bytes()); err != nil {
		t.Errorf("empty exposition fails lint: %v", err)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"sim.cycles":          "reuseiq_sim_cycles",
		"dispatch.stall.rob":  "reuseiq_dispatch_stall_rob",
		"fu.ialu":             "reuseiq_fu_ialu",
		"weird-name 1":        "reuseiq_weird_name_1",
		"hist.session_cycles": "reuseiq_hist_session_cycles",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
		if !lintrules.ValidExpositionMetricName(SanitizeMetricName(in)) {
			t.Errorf("sanitized %q still illegal", in)
		}
	}
}
