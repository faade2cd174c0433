// Package obs is the simulator's live observability server: the operational
// surface a long sweep or soak run exposes while it executes, as opposed to
// the post-hoc exporters in internal/telemetry.
//
// One Server embeds in a CLI and serves:
//
//	/metrics       Prometheus text exposition rendered from the latest
//	               published telemetry.MetricsSnapshot, with derived
//	               per-second rates from the previous snapshot
//	/events        Server-Sent-Events fan-out of the telemetry event stream
//	               (bounded per-client buffers; slow consumers drop frames,
//	               they never stall the simulation)
//	/status        JSON: the latest published status payload plus server
//	               internals (sample cycle/age, subscribers, drops)
//	/healthz       liveness (always 200 while the process serves)
//	/readyz        readiness (200 once the first sample is published)
//	/debug/pprof   the standard net/http/pprof handlers
//	/runs          JSON run-ledger summaries (filter with ?kernel= &kind=
//	               &fingerprint= &last=) when a ledger is attached via
//	               SetRunSource; 404 otherwise
//	/runs/{id}     one complete ledger record by id or unique prefix
//	/dashboard     HTML dashboard charting live sweep progress (over the
//	               /events SSE stream) and recent run history (over /runs)
//
// The contract with the simulation is one-directional and allocation-bounded:
// the sim goroutine calls Publish with an immutable Sample it built itself
// (via pipeline.Machine's sampler tap or a sweep harness ticker), and the
// event sink performs at most one JSON encode plus non-blocking channel
// sends. HTTP handlers never touch live simulator state.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"reuseiq/internal/telemetry"
)

// Sample is one published observation: a typed metrics snapshot plus an
// arbitrary JSON-marshalable status payload, both built on the goroutine
// that owns the underlying counters and immutable afterwards.
type Sample struct {
	At      time.Time
	Cycle   uint64
	Metrics *telemetry.MetricsSnapshot
	Status  any
}

// Server serves the observability endpoints for one run. Create with
// NewServer, feed it with Publish and EventSink, serve with Start.
type Server struct {
	mux *http.ServeMux
	hub *hub

	mu        sync.Mutex // guards cur/prev
	cur, prev *Sample

	ready   atomic.Bool
	scrapes atomic.Uint64

	runs runSource // /runs and /runs/{id} provider (see SetRunSource)

	ln  net.Listener
	srv *http.Server
}

// NewServer creates a server with all endpoints mounted.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux(), hub: newHub()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			http.Error(w, "no sample published yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("/runs", s.handleRuns)
	s.mux.HandleFunc("/runs/{id}", s.handleRun)
	s.mux.HandleFunc("/dashboard", s.handleDashboard)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Publish installs sm as the latest sample; the previous one is retained for
// rate derivation. The first Publish marks the server ready. Safe to call
// from any single producer goroutine concurrently with scrapes.
func (s *Server) Publish(sm Sample) {
	if sm.At.IsZero() {
		sm.At = time.Now()
	}
	s.mu.Lock()
	s.prev = s.cur
	s.cur = &sm
	s.mu.Unlock()
	s.ready.Store(true)
}

// EventSink returns a telemetry sink that fans each event out to /events
// subscribers as an SSE frame (event type "telemetry", data in the JSONL
// encoding). Chainable with other sinks.
func (s *Server) EventSink() func(telemetry.Event) {
	return func(e telemetry.Event) {
		s.hub.publish("telemetry", telemetry.MarshalEvent(e))
	}
}

// PublishEvent fans an arbitrary pre-encoded JSON payload out to /events
// subscribers under the given SSE event type (e.g. sweep "progress"
// records).
func (s *Server) PublishEvent(event string, data []byte) {
	s.hub.publish(event, data)
}

// Handler returns the root handler (useful for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (port 0 picks an ephemeral port) and serves in a
// background goroutine until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener and force-closes active connections (including
// long-lived SSE streams).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// samples returns the current and previous sample under the lock.
func (s *Server) samples() (cur, prev *Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.prev
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scrapes.Add(1)
	cur, prev := s.samples()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteExposition(w, cur, prev)
	s.writeSelfMetrics(w, cur)
}

// writeSelfMetrics appends the server's own meta-metrics to an exposition.
// They live outside WriteExposition so the golden test of the sample
// rendering stays independent of wall-clock and scrape state.
func (s *Server) writeSelfMetrics(w http.ResponseWriter, cur *Sample) {
	pub, dropped, subs := s.hub.stats()
	fmt.Fprintf(w, "# TYPE %sobs_scrapes_total counter\n%sobs_scrapes_total %d\n",
		MetricPrefix, MetricPrefix, s.scrapes.Load())
	fmt.Fprintf(w, "# TYPE %sobs_events_published_total counter\n%sobs_events_published_total %d\n",
		MetricPrefix, MetricPrefix, pub)
	fmt.Fprintf(w, "# TYPE %sobs_events_dropped_total counter\n%sobs_events_dropped_total %d\n",
		MetricPrefix, MetricPrefix, dropped)
	fmt.Fprintf(w, "# TYPE %sobs_subscribers gauge\n%sobs_subscribers %d\n",
		MetricPrefix, MetricPrefix, subs)
	if cur != nil {
		fmt.Fprintf(w, "# TYPE %sobs_sample_cycle gauge\n%sobs_sample_cycle %d\n",
			MetricPrefix, MetricPrefix, cur.Cycle)
		fmt.Fprintf(w, "# TYPE %sobs_sample_age_seconds gauge\n%sobs_sample_age_seconds %g\n",
			MetricPrefix, MetricPrefix, time.Since(cur.At).Seconds())
	}
}

// statusPayload is the /status response shape.
type statusPayload struct {
	SampleCycle     uint64 `json:"sample_cycle"`
	SampleAgeMS     int64  `json:"sample_age_ms"`
	Subscribers     int    `json:"subscribers"`
	EventsPublished uint64 `json:"events_published"`
	EventsDropped   uint64 `json:"events_dropped"`
	Status          any    `json:"status,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	cur, _ := s.samples()
	pub, dropped, subs := s.hub.stats()
	p := statusPayload{
		Subscribers:     subs,
		EventsPublished: pub,
		EventsDropped:   dropped,
	}
	if cur != nil {
		p.SampleCycle = cur.Cycle
		p.SampleAgeMS = time.Since(cur.At).Milliseconds()
		p.Status = cur.Status
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}
