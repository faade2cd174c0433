package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reuseiq/internal/asm"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/telemetry"
)

// liveMachine builds a long-running reuse-gating loop machine wired to srv:
// sampler tap publishing typed snapshots every `every` cycles, event sink
// fanning telemetry into /events.
func liveMachine(t *testing.T, srv *Server, every uint64) *pipeline.Machine {
	t.Helper()
	p := asm.MustAssemble(`
	li   $r2, 0
	li   $r3, 150000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	m := pipeline.New(pipeline.DefaultConfig(), p)
	tel := telemetry.New(telemetry.Config{})
	tel.Sink = srv.EventSink()
	m.AttachTelemetry(tel)
	m.AttachSampler(every, func() {
		r := &telemetry.Registry{}
		m.RegisterMetrics(r)
		srv.Publish(Sample{
			Cycle:   m.Cycle(),
			Metrics: r.TypedSnapshot(),
			Status:  map[string]any{"cycle": m.Cycle(), "state": m.Ctl.State().String()},
		})
	})
	return m
}

// TestLiveScrapeUnderRun is the snapshot-under-mutation test: a machine
// steps on one goroutine while /metrics is scraped and /events is consumed
// by two subscribers. Run under -race (part of `make check`), it proves the
// sampler-publish/scrape handoff has no data races, scrapes always lint,
// and counters are monotone scrape over scrape.
func TestLiveScrapeUnderRun(t *testing.T) {
	srv := NewServer()
	m := liveMachine(t, srv, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runDone := make(chan error, 1)
	go func() {
		err := m.Run()
		// Final snapshot after halt so late scrapes see the end state.
		m.Tel.Finalize(m.Cycle())
		m.OnSample()
		runDone <- err
	}()

	var wg sync.WaitGroup
	scrapeErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev map[string]ExpoMetric
			for j := 0; j < 20; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					scrapeErr <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					scrapeErr <- err
					return
				}
				cur, err := LintExposition(body)
				if err != nil {
					scrapeErr <- err
					return
				}
				if prev != nil {
					if err := CheckMonotone(prev, cur); err != nil {
						scrapeErr <- err
						return
					}
				}
				prev = cur
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Two concurrent SSE subscribers, reading whatever streams by while the
	// machine runs (replay covers the case where the run ends first).
	frameCount := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events?replay=64", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				frameCount <- 0
				return
			}
			defer resp.Body.Close()
			frames, _ := ReadSSE(resp.Body, 8) // read error after limit is fine (ctx cancel)
			frameCount <- len(frames)
		}()
	}

	wg.Wait()
	if err := <-runDone; err != nil {
		t.Fatalf("machine run failed: %v", err)
	}
	select {
	case err := <-scrapeErr:
		t.Fatalf("scrape failed: %v", err)
	default:
	}
	for i := 0; i < 2; i++ {
		if n := <-frameCount; n == 0 {
			t.Errorf("subscriber %d received no frames", i)
		}
	}
}

func TestHealthReadyStatusEndpoints(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before first sample = %d, want 503", code)
	}
	// /metrics before any sample still lints.
	if code, body := get("/metrics"); code != 200 {
		t.Errorf("/metrics = %d, want 200", code)
	} else if _, err := LintExposition([]byte(body)); err != nil {
		t.Errorf("pre-sample exposition fails lint: %v", err)
	}

	r := &telemetry.Registry{}
	r.CounterVal("sim.cycles", 42)
	srv.Publish(Sample{Cycle: 42, Metrics: r.TypedSnapshot(), Status: map[string]any{"state": "normal"}})

	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz after sample = %d, want 200", code)
	}
	code, body := get("/status")
	if code != 200 {
		t.Fatalf("/status = %d, want 200", code)
	}
	var p struct {
		SampleCycle uint64          `json:"sample_cycle"`
		Status      json.RawMessage `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if p.SampleCycle != 42 || !strings.Contains(string(p.Status), "normal") {
		t.Errorf("/status payload wrong: %s", body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d, want 200 with content", code)
	}
}

func TestStartServesAndCloses(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}
