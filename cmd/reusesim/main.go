// Command reusesim runs a single workload on the simulated processor and
// prints performance, reuse-mechanism and power statistics.
//
// Usage:
//
//	reusesim -kernel aps                 # one of the Table 2 kernels
//	reusesim -asm prog.s                 # an assembly file
//	reusesim -kernel adi -iq 128         # issue-queue size sweep point
//	reusesim -kernel adi -baseline       # conventional issue queue
//	reusesim -kernel adi -distribute     # apply loop distribution first
//	reusesim -kernel aps -compare        # run baseline + reuse, show savings
//	reusesim -asm prog.s -disasm         # print the loaded program and exit
//	reusesim -kernel aps -pipetrace 40   # pipeline diagram of the first 40 insts
//	reusesim -kernel aps -verify         # cross-check every commit (lockstep)
//	reusesim -kernel aps -chaos 42       # seeded fault injection
//	reusesim -kernel adi -trace adi.json # Chrome/Perfetto trace (ui.perfetto.dev)
//	reusesim -kernel adi -events -       # stream telemetry events as JSONL
//	reusesim -kernel adi -sessions       # reuse-session audit table
//	reusesim -kernel adi -attrib         # per-session energy attribution
//	reusesim -kernel aps -cpuprofile cpu.pprof -memprofile mem.pprof
//	reusesim -kernel adi -listen 127.0.0.1:8080   # live /metrics /events
//	                                              # /status /debug/pprof
//	reusesim -kernel adi -flightrec rec/          # write a flight-recorder manifest;
//	                                              # debug with reusedbg -dir rec/
//
// Exit codes: 0 success, 1 runtime error, 2 flag error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"reuseiq/internal/asm"
	"reuseiq/internal/cell"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/lockstep"
	"reuseiq/internal/obs"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/prog"
	"reuseiq/internal/runstore"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/trace"
)

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

// opts carries the parsed flags into run().
type opts struct {
	verify bool
	// telemetry wants a tracer attached: any of -trace/-events/-sessions/
	// -attrib/-listen, or the stats histograms when -stats is combined with
	// them.
	telemetry  bool
	eventsPath string // JSONL stream destination ("-" = stdout, "" = off)
	// srv, non-nil with -listen, receives samples from the machine's
	// sampler tap and telemetry events for SSE fan-out.
	srv         *obs.Server
	sampleEvery uint64
	stdout      io.Writer
	stderr      io.Writer
	// Flight recorder: frDir receives the run's manifest; frAsm is the
	// assembly source it carries when the workload is not a kernel.
	frDir string
	frAsm string
	// ledger, non-nil with -ledger, receives one provenance-stamped record
	// per completed simulation (both halves of -compare).
	ledger *runstore.Ledger
}

// simStatus is the /status payload published with each sample.
type simStatus struct {
	Cycle    uint64  `json:"cycle"`
	Commits  uint64  `json:"commits"`
	IPC      float64 `json:"ipc"`
	RIQState string  `json:"riq_state"`
	GatedPct float64 `json:"gated_pct"`
	Sessions int     `json:"sessions"`
	Halted   bool    `json:"halted"`
}

// publishSample snapshots the machine's registry (on the simulation
// goroutine) and publishes it. The final sample after the run additionally
// carries per-session energy attribution gauges.
func publishSample(srv *obs.Server, m *pipeline.Machine, final bool) {
	r := &telemetry.Registry{}
	m.RegisterMetrics(r)
	st := simStatus{
		Cycle:    m.Cycle(),
		Commits:  m.C.Commits,
		IPC:      m.IPC(),
		RIQState: m.Ctl.State().String(),
		GatedPct: 100 * m.GatedFraction(),
		Halted:   m.Halted(),
	}
	if m.Tel != nil {
		st.Sessions = len(m.Tel.Sessions())
		if final {
			power.RegisterSessionMetrics(r, power.AttributeSessions(m, m.Tel.Sessions()))
		}
	}
	srv.Publish(obs.Sample{Cycle: m.Cycle(), Metrics: r.TypedSnapshot(), Status: st})
}

func mainImpl(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reusesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "", "workload kernel name (adi aps btrix eflux tomcat tsf vpenta wss)")
	asmFile := fs.String("asm", "", "assembly source file to run instead of a kernel")
	iq := fs.Int("iq", 64, "issue queue size (ROB = iq, LSQ = iq/2)")
	baseline := fs.Bool("baseline", false, "disable the reuse mechanism")
	distribute := fs.Bool("distribute", false, "apply loop distribution to the kernel")
	compare := fs.Bool("compare", false, "run both configurations and report savings")
	disasm := fs.Bool("disasm", false, "print the program disassembly and exit")
	emitAsm := fs.Bool("S", false, "print the generated assembly for a kernel and exit")
	pipetrace := fs.Int("pipetrace", 0, "record and print a pipeline diagram of the first N instructions")
	statsFlag := fs.Bool("stats", false, "print the full counter set instead of the summary")
	verify := fs.Bool("verify", false, "run under the lockstep oracle and invariant checker")
	chaosFlag := fs.Int64("chaos", 0, "enable seeded fault injection (nonzero seed)")
	traceOut := fs.String("trace", "", "write a Chrome/Perfetto trace-event JSON file (open at ui.perfetto.dev)")
	events := fs.String("events", "", "stream telemetry events as JSON lines to this file (\"-\" for stdout)")
	sessionsFlag := fs.Bool("sessions", false, "print the reuse-session audit table")
	attribFlag := fs.Bool("attrib", false, "print per-session energy attribution")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	listen := fs.String("listen", "", "serve live observability (/metrics /events /status /debug/pprof) on this address (port 0 picks one)")
	linger := fs.Duration("linger", 0, "with -listen, keep serving this long after the run ends")
	sampleEvery := fs.Uint64("sample-every", 0, "with -listen, cycles between metric samples (0 = default 4096)")
	ledgerPath := fs.String("ledger", "", "append a provenance-stamped run-ledger record (JSONL) for each completed run to this file; query with reusereport")
	flightrecDir := fs.String("flightrec", "", "write a flight-recorder manifest of the run into this directory (reusedbg -dir re-simulates and seeks it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*kernel == "") == (*asmFile == "") {
		fmt.Fprintln(stderr, "reusesim: need exactly one of -kernel or -asm (try -kernel aps)")
		return 2
	}
	sp := cell.Spec{Kernel: *kernel, IQSize: *iq, Reuse: !*baseline, Distributed: *distribute,
		NBLTSize: cell.DefaultNBLT, ChaosSeed: *chaosFlag}
	if err := sp.Validate(); err != nil {
		fmt.Fprintln(stderr, "reusesim:", err)
		return 2
	}
	if *asmFile != "" && *ledgerPath != "" {
		fmt.Fprintln(stderr, "reusesim: -ledger records kernel runs; an -asm run has no spec a ledger record can rebuild")
		return 2
	}
	if *flightrecDir != "" && (*compare || *pipetrace > 0) {
		fmt.Fprintln(stderr, "reusesim: -flightrec records a single plain run, not -compare or -pipetrace")
		return 2
	}
	if *pipetrace > 0 {
		// Reject every flag whose output a diagram-only run would drop.
		ignored := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "compare", "trace", "events", "sessions", "attrib", "stats", "ledger", "listen":
				ignored = f.Name
			}
		})
		if ignored != "" {
			fmt.Fprintf(stderr, "reusesim: -pipetrace prints only the pipeline diagram; -%s is not supported with it\n", ignored)
			return 2
		}
	}
	o := &opts{
		verify:     *verify,
		telemetry:  *traceOut != "" || *events != "" || *sessionsFlag || *attribFlag || *listen != "",
		eventsPath: *events,
		stdout:     stdout,
		stderr:     stderr,
		frDir:      *flightrecDir,
	}
	if *ledgerPath != "" {
		led, err := runstore.Open(*ledgerPath)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		o.ledger = led
		defer led.Close()
	}
	if *listen != "" {
		srv := obs.NewServer()
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		o.srv = srv
		o.sampleEvery = *sampleEvery
		if o.ledger != nil {
			srv.SetRunSource(o.ledger.Records)
		}
		fmt.Fprintf(stderr, "reusesim: obs: listening on http://%s (/metrics /events /status /dashboard /debug/pprof)\n", addr)
		defer func() {
			if *linger > 0 {
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "reusesim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // only reachable allocations; the point is what the core retains
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "reusesim:", err)
			}
		}()
	}

	var p *prog.Program
	var src string
	var err error
	if *asmFile == "" {
		p, src, err = sp.Program()
	} else {
		var data []byte
		if data, err = os.ReadFile(*asmFile); err == nil {
			src, o.frAsm = string(data), string(data)
			p, err = asm.Assemble(src)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "reusesim:", err)
		return 1
	}
	if *emitAsm {
		fmt.Fprint(stdout, src)
		return 0
	}
	if *disasm {
		fmt.Fprint(stdout, p.Disasm())
		return 0
	}

	if *compare {
		sp.Reuse = false
		base, err := run(p, sp, o)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		sp.Reuse = true
		reuse, err := run(p, sp, o)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		sv := power.Compare(power.Analyze(base), power.Analyze(reuse))
		fmt.Fprintf(stdout, "baseline: %d cycles, IPC %.3f\n", base.C.Cycles, base.IPC())
		fmt.Fprintf(stdout, "reuse:    %d cycles, IPC %.3f, gated %.1f%%\n",
			reuse.C.Cycles, reuse.IPC(), 100*reuse.GatedFraction())
		fmt.Fprintf(stdout, "power savings: overall %.1f%%  icache %.1f%%  bpred %.1f%%  issueq %.1f%%  (overhead %.2f%% of total)\n",
			100*sv.Overall, 100*sv.Component[power.ICache], 100*sv.Component[power.BPred],
			100*sv.Component[power.IssueQueue], 100*sv.OverheadShare)
		return 0
	}

	if *pipetrace > 0 {
		m := pipeline.New(sp.Config(), p)
		if o.verify {
			lockstep.Attach(m, p)
		}
		// The ring would drop the earliest rows of a long trace, so the
		// lifecycle events are collected through the sink.
		tel := telemetry.New(telemetry.Config{InstLimit: *pipetrace})
		var events []telemetry.Event
		tel.Sink = func(e telemetry.Event) { events = append(events, e) }
		m.AttachTelemetry(tel)
		if err := m.Run(); err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		recs := trace.Records(events, func(pc uint32) string {
			in, _ := p.InstAt(pc)
			return in.Disasm(pc)
		})
		trace.Render(stdout, recs)
		wait, life, n := trace.Stats(recs)
		fmt.Fprintf(stdout, "recorded %d committed instructions: avg dispatch-to-issue %.1f cycles, avg lifetime %.1f cycles\n", n, wait, life)
		return 0
	}

	m, err := run(p, sp, o)
	if err != nil {
		fmt.Fprintln(stderr, "reusesim:", err)
		return 1
	}

	if *traceOut != "" {
		if m.Tel == nil {
			fmt.Fprintln(stderr, "reusesim: internal error: -trace requires an attached telemetry tracer")
			return 1
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		werr := telemetry.WriteTraceJSON(bw, m.Tel, m.Cycle())
		if werr == nil {
			werr = bw.Flush()
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "reusesim:", werr)
			return 1
		}
		fmt.Fprintf(stderr, "reusesim: wrote %s (%d events, %d sessions; open at ui.perfetto.dev)\n",
			*traceOut, m.Tel.Total(), len(m.Tel.Sessions()))
	}
	if *sessionsFlag {
		if m.Tel == nil {
			fmt.Fprintln(stderr, "reusesim: internal error: -sessions requires an attached telemetry tracer")
			return 1
		}
		telemetry.WriteSessionTable(stdout, m.Tel.Sessions())
		if !*statsFlag && !*attribFlag {
			return 0
		}
		fmt.Fprintln(stdout)
	}
	if *attribFlag {
		if m.Tel == nil {
			fmt.Fprintln(stderr, "reusesim: internal error: -attrib requires an attached telemetry tracer")
			return 1
		}
		power.WriteSessionEnergy(stdout, power.AttributeSessions(m, m.Tel.Sessions()))
		if !*statsFlag {
			return 0
		}
		fmt.Fprintln(stdout)
	}
	if *statsFlag {
		fmt.Fprint(stdout, m.StatsSet())
		return 0
	}
	if o.telemetry && o.eventsPath != "" && !*sessionsFlag && !*attribFlag && *traceOut == "" {
		// A pure -events run already streamed its output; skip the summary.
		return 0
	}
	fmt.Fprintf(stdout, "cycles            %12d\n", m.C.Cycles)
	fmt.Fprintf(stdout, "commits           %12d\n", m.C.Commits)
	fmt.Fprintf(stdout, "IPC               %12.3f\n", m.IPC())
	fmt.Fprintf(stdout, "gated cycles      %12d (%.1f%%)\n", m.C.GatedCycles, 100*m.GatedFraction())
	fmt.Fprintf(stdout, "mispredicts       %12d\n", m.C.Mispredicts)
	s := m.Ctl.S
	fmt.Fprintf(stdout, "loop detections   %12d (NBLT filtered %d)\n", s.Detections, s.NBLTFiltered)
	fmt.Fprintf(stdout, "bufferings        %12d (revoked %d: inner %d, exit %d, full %d, recovery %d)\n",
		s.Bufferings, s.Revokes, s.RevokesInner, s.RevokesExit, s.RevokesFull, s.RevokesRecovery)
	fmt.Fprintf(stdout, "promotions        %12d (iterations buffered %d)\n", s.Promotions, s.IterationsBuffered)
	fmt.Fprintf(stdout, "reuse renames     %12d (exits %d)\n", s.ReuseRenames, s.ReuseExits)
	fmt.Fprintf(stdout, "icache accesses   %12d (miss rate %.2f%%)\n", m.Hier.L1I.Accesses, 100*m.Hier.L1I.MissRate())
	fmt.Fprintf(stdout, "dcache accesses   %12d (miss rate %.2f%%)\n", m.Hier.L1D.Accesses, 100*m.Hier.L1D.MissRate())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, power.Analyze(m))
	return 0
}

// run simulates one configuration to completion and returns the machine.
func run(p *prog.Program, sp cell.Spec, o *opts) (*pipeline.Machine, error) {
	start := time.Now()
	m := pipeline.New(sp.Config(), p)

	var flushEvents func() error
	if o.telemetry || o.eventsPath != "" {
		tel := telemetry.New(telemetry.Config{})
		if o.eventsPath != "" {
			w := o.stdout
			if o.eventsPath != "-" {
				f, err := os.Create(o.eventsPath)
				if err != nil {
					return nil, err
				}
				bw := bufio.NewWriter(f)
				w = bw
				flushEvents = func() error {
					if err := bw.Flush(); err != nil {
						f.Close()
						return err
					}
					return f.Close()
				}
			}
			tel.Sink = telemetry.JSONLSink(w)
		}
		if o.srv != nil {
			obsSink := o.srv.EventSink()
			if jsonl := tel.Sink; jsonl != nil {
				tel.Sink = func(e telemetry.Event) { jsonl(e); obsSink(e) }
			} else {
				tel.Sink = obsSink
			}
		}
		m.AttachTelemetry(tel)
	}
	man := flightrec.Manifest{Spec: sp, AsmSource: o.frAsm}
	if o.frDir != "" {
		if err := flightrec.Start(o.frDir, man, m); err != nil {
			return nil, err
		}
	}

	if o.srv != nil {
		m.AttachSampler(o.sampleEvery, func() { publishSample(o.srv, m, false) })
		// An immediate sample makes /readyz pass before the first interval
		// elapses.
		publishSample(o.srv, m, false)
	}

	var orc *lockstep.Oracle
	if o.verify {
		orc = lockstep.Attach(m, p)
	}
	runErr := m.Run()
	if o.frDir != "" {
		// Stamp the manifest even when the run failed: the directory is
		// then the post-mortem artifact.
		what := "recording"
		if runErr != nil {
			what = "post-mortem recording"
		}
		if err := flightrec.Stamp(o.frDir, man, m); err != nil {
			if runErr == nil {
				return nil, err
			}
			fmt.Fprintln(o.stderr, "reusesim:", err)
		} else {
			fmt.Fprintf(o.stderr, "reusesim: flightrec: %s in %s: seekable cycles [0, %d]; debug with: reusedbg -dir %s\n",
				what, o.frDir, m.Cycle(), o.frDir)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if m.Tel != nil {
		m.Tel.Finalize(m.Cycle())
	}
	if o.srv != nil {
		publishSample(o.srv, m, true)
	}
	if flushEvents != nil {
		if err := flushEvents(); err != nil {
			return nil, err
		}
	}
	if orc != nil {
		fmt.Fprintf(o.stdout, "verified: %d commits cross-checked against the golden model\n", orc.Commits)
	}
	if m.Chaos != nil {
		c := m.Chaos.C
		fmt.Fprintf(o.stdout, "chaos: %d forced revokes, %d flipped predictions, %d fetch stalls, %d jittered issues\n",
			c.ForcedRevokes, c.FlippedPredictions, c.FetchStalls, c.JitteredIssues)
	}
	if o.ledger != nil {
		rec := runstore.FromMachine(sp, m)
		rec.Kind = runstore.KindSim
		rec.FlightRec = o.frDir != ""
		rec.Verified = o.verify
		rec.Host.WallNS = time.Since(start).Nanoseconds()
		if err := o.ledger.Append(&rec); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.stderr, "reusesim: ledger: recorded run %s (%s)\n", rec.ID, rec.Fingerprint)
	}
	return m, nil
}
