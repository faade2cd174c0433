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
//	reusesim -kernel adi -checkpoint s.ckpt -checkpoint-at 50000
//	reusesim -kernel adi -restore s.ckpt          # continue a checkpointed run
//	reusesim -kernel adi -max-wall 30s -checkpoint s.ckpt
//	reusesim -kernel adi -flightrec rec/          # time-travel flight recording;
//	                                              # debug with reusedbg -dir rec/
//
// Exit codes: 0 success, 1 runtime error, 2 flag error, 3 the run was
// checkpointed (by -checkpoint-at or -max-wall) and stopped before
// completion; resume it with -restore under the same configuration flags.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"reuseiq/internal/asm"
	"reuseiq/internal/chaos"
	"reuseiq/internal/compiler"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/lockstep"
	"reuseiq/internal/obs"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/prog"
	"reuseiq/internal/runstore"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/trace"
	"reuseiq/internal/workloads"
)

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

// opts carries the parsed flags into run().
type opts struct {
	verify    bool
	chaosSeed int64 // 0 disables injection
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
	// Checkpoint/restore plumbing: restorePath resumes a saved machine,
	// ckptPath receives a snapshot when ckptAt (a cycle) or maxWall (a
	// wall-clock budget) stops the run early.
	restorePath string
	ckptPath    string
	ckptAt      uint64
	maxWall     time.Duration
	// Flight recorder: frDir enables recording, frManifest carries the
	// workload identity reusedbg needs to rebuild the machine.
	frDir      string
	frInterval uint64
	frDepth    int
	frManifest flightrec.Manifest
	// ledger, non-nil with -ledger, receives one provenance-stamped record
	// per completed simulation (both halves of -compare). Checkpoint-stopped
	// runs are not recorded: their counters are mid-flight, not a result.
	ledger     *runstore.Ledger
	kernelName string
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
	// The process-wide snapshot image traffic.
	SnapshotSaves    uint64 `json:"snapshot_saves"`
	SnapshotRestores uint64 `json:"snapshot_restores"`
	// TimeTravel mirrors /debug/timetravel when a flight recorder records.
	TimeTravel *flightrec.Status `json:"timetravel,omitempty"`
}

// publishSample snapshots the machine's registry (on the simulation
// goroutine) and publishes it. The final sample after the run additionally
// carries per-session energy attribution gauges.
func publishSample(srv *obs.Server, m *pipeline.Machine, rec *flightrec.Recorder, final bool) {
	r := &telemetry.Registry{}
	m.RegisterMetrics(r)
	snapshot.RegisterMetrics(r)
	saves, restores := snapshot.Counters()
	st := simStatus{
		Cycle:            m.Cycle(),
		Commits:          m.C.Commits,
		IPC:              m.IPC(),
		RIQState:         m.Ctl.State().String(),
		GatedPct:         100 * m.GatedFraction(),
		Halted:           m.Halted(),
		SnapshotSaves:    saves,
		SnapshotRestores: restores,
	}
	if rec != nil {
		rec.RegisterMetrics(r)
		frs := rec.Status()
		st.TimeTravel = &frs
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
	checkpoint := fs.String("checkpoint", "", "write a machine snapshot to this file when -checkpoint-at or -max-wall stops the run")
	checkpointAt := fs.Uint64("checkpoint-at", 0, "stop and checkpoint at this cycle (requires -checkpoint)")
	restoreFlag := fs.String("restore", "", "resume from a snapshot file (pass the same -iq/-baseline/-chaos flags as the original run)")
	maxWall := fs.Duration("max-wall", 0, "wall-clock budget: checkpoint (with -checkpoint) and exit with code 3 when exceeded")
	ledgerPath := fs.String("ledger", "", "append a provenance-stamped run-ledger record (JSONL) for each completed run to this file; query with reusereport")
	flightrecDir := fs.String("flightrec", "", "record a time-travel flight recording into this directory (seek it afterwards with reusedbg -dir)")
	flightrecInterval := fs.Uint64("flightrec-interval", 0, "cycles between flight-recorder checkpoints (0 = default)")
	flightrecDepth := fs.Int("flightrec-depth", 0, "flight-recorder checkpoint ring depth (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *checkpointAt > 0 && *checkpoint == "" {
		fmt.Fprintln(stderr, "reusesim: -checkpoint-at requires -checkpoint")
		return 2
	}
	if *restoreFlag != "" && *verify {
		fmt.Fprintln(stderr, "reusesim: -restore is incompatible with -verify: the lockstep oracle must observe the run from the program entry")
		return 2
	}
	if (*checkpoint != "" || *restoreFlag != "" || *maxWall > 0) && (*compare || *pipetrace > 0) {
		fmt.Fprintln(stderr, "reusesim: checkpoint/restore flags apply to a single plain run, not -compare or -pipetrace")
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
		verify:      *verify,
		chaosSeed:   *chaosFlag,
		telemetry:   *traceOut != "" || *events != "" || *sessionsFlag || *attribFlag || *listen != "",
		eventsPath:  *events,
		stdout:      stdout,
		stderr:      stderr,
		restorePath: *restoreFlag,
		ckptPath:    *checkpoint,
		ckptAt:      *checkpointAt,
		maxWall:     *maxWall,
		frDir:       *flightrecDir,
		frInterval:  *flightrecInterval,
		frDepth:     *flightrecDepth,
		kernelName:  *kernel,
	}
	if o.kernelName == "" && *asmFile != "" {
		o.kernelName = filepath.Base(*asmFile)
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

	p, src, err := load(*kernel, *asmFile, *distribute)
	if err != nil {
		fmt.Fprintln(stderr, "reusesim:", err)
		return 1
	}
	if o.frDir != "" {
		// The manifest lets reusedbg rebuild the exact config and program;
		// run() fills Baseline, which is the one knob decided there.
		o.frManifest = flightrec.Manifest{
			Kernel:     *kernel,
			Distribute: *distribute,
			IQSize:     *iq,
			ChaosSeed:  *chaosFlag,
		}
		if *kernel == "" {
			o.frManifest.AsmSource = src
		}
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
		base, _, err := run(p, *iq, false, o)
		if err != nil {
			fmt.Fprintln(stderr, "reusesim:", err)
			return 1
		}
		reuse, _, err := run(p, *iq, true, o)
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
		cfg := pipeline.DefaultConfig().WithIQSize(*iq)
		cfg.Reuse.Enabled = !*baseline
		if o.chaosSeed != 0 {
			cfg.Chaos = chaos.DefaultConfig(o.chaosSeed)
		}
		m := pipeline.New(cfg, p)
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

	m, stopped, err := run(p, *iq, !*baseline, o)
	if err != nil {
		fmt.Fprintln(stderr, "reusesim:", err)
		return 1
	}
	if stopped {
		fmt.Fprintf(stdout, "checkpointed at cycle %d (%d commits)\n", m.C.Cycles, m.C.Commits)
		return 3
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

func load(kernel, asmFile string, distribute bool) (*prog.Program, string, error) {
	switch {
	case kernel != "" && asmFile != "":
		return nil, "", fmt.Errorf("choose either -kernel or -asm")
	case kernel != "":
		k, ok := workloads.ByName(kernel)
		if !ok {
			return nil, "", fmt.Errorf("unknown kernel %q", kernel)
		}
		ir := k.Prog
		if distribute {
			ir = compiler.Distribute(ir)
		}
		return compiler.Compile(ir)
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, "", err
		}
		p, err := asm.Assemble(string(src))
		return p, string(src), err
	}
	return nil, "", fmt.Errorf("need -kernel or -asm (try -kernel aps)")
}

// run simulates to completion (or to a checkpoint stop) and returns the
// machine plus whether the run was stopped early by -checkpoint-at/-max-wall.
func run(p *prog.Program, iq int, reuse bool, o *opts) (*pipeline.Machine, bool, error) {
	start := time.Now()
	cfg := pipeline.DefaultConfig().WithIQSize(iq)
	cfg.Reuse.Enabled = reuse
	if o.chaosSeed != 0 {
		cfg.Chaos = chaos.DefaultConfig(o.chaosSeed)
	}
	var m *pipeline.Machine
	if o.restorePath != "" {
		f, err := os.Open(o.restorePath)
		if err != nil {
			return nil, false, err
		}
		m, err = snapshot.Restore(bufio.NewReader(f), cfg, p)
		f.Close()
		if err != nil {
			return nil, false, fmt.Errorf("restore %s: %w", o.restorePath, err)
		}
		fmt.Fprintf(o.stderr, "reusesim: restored %s at cycle %d (%d commits)\n", o.restorePath, m.C.Cycles, m.C.Commits)
	} else {
		m = pipeline.New(cfg, p)
	}

	var flushEvents func() error
	if o.telemetry || o.eventsPath != "" {
		tel := telemetry.New(telemetry.Config{})
		if o.eventsPath != "" {
			w := o.stdout
			if o.eventsPath != "-" {
				f, err := os.Create(o.eventsPath)
				if err != nil {
					return nil, false, err
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
	var rec *flightrec.Recorder
	if o.frDir != "" {
		man := o.frManifest
		man.Baseline = !reuse
		var err error
		rec, err = flightrec.Attach(m, flightrec.Config{
			Interval: o.frInterval,
			Depth:    o.frDepth,
			Dir:      o.frDir,
			Manifest: man,
		})
		if err != nil {
			return nil, false, err
		}
		if o.srv != nil {
			o.srv.SetTimeTravel(func() any { return rec.Status() })
		}
	}

	if o.srv != nil {
		m.AttachSampler(o.sampleEvery, func() { publishSample(o.srv, m, rec, false) })
		// An immediate sample makes /readyz pass before the first interval
		// elapses.
		publishSample(o.srv, m, rec, false)
	}

	var orc *lockstep.Oracle
	if o.verify {
		orc = lockstep.Attach(m, p)
	}
	// finishRec seals the recording; on a crashed run the directory is the
	// post-mortem artifact, so the run error must not suppress sealing.
	finishRec := func(crashed bool) error {
		if rec == nil {
			return nil
		}
		if err := rec.Finish(); err != nil {
			return fmt.Errorf("flightrec: %w", err)
		}
		st := rec.Status()
		what := "recording"
		if crashed {
			what = "post-mortem recording"
		}
		fmt.Fprintf(o.stderr, "reusesim: flightrec: %s in %s: %d checkpoints (%d evicted), %d events, seekable cycles [%d, %d]; debug with: reusedbg -dir %s\n",
			what, o.frDir, st.Checkpoints, st.CheckpointsEvicted, st.EventsRetained,
			st.SeekableFrom, st.SeekableTo, o.frDir)
		return nil
	}
	stopped := false
	if o.ckptAt > 0 || o.maxWall > 0 {
		var deadline time.Time
		if o.maxWall > 0 {
			deadline = time.Now().Add(o.maxWall)
		}
		// -checkpoint-at wants the exact cycle, so check every cycle; a pure
		// wall-clock budget only needs a coarse check.
		every := uint64(4096)
		if o.ckptAt > 0 {
			every = 1
		}
		err := m.RunBreakable(every, func() bool {
			if rec != nil {
				rec.Poll()
			}
			if o.ckptAt > 0 && m.Cycle() >= o.ckptAt {
				return true
			}
			return !deadline.IsZero() && time.Now().After(deadline)
		})
		switch {
		case errors.Is(err, pipeline.ErrStopped):
			stopped = true
			if o.ckptPath != "" {
				if err := saveCheckpoint(o.ckptPath, m); err != nil {
					return nil, false, err
				}
				fmt.Fprintf(o.stderr, "reusesim: wrote checkpoint %s at cycle %d; resume with -restore\n", o.ckptPath, m.C.Cycles)
			} else {
				fmt.Fprintln(o.stderr, "reusesim: wall-clock budget exceeded; no -checkpoint path given, state discarded")
			}
		case err != nil:
			if ferr := finishRec(true); ferr != nil {
				fmt.Fprintln(o.stderr, "reusesim:", ferr)
			}
			return nil, false, err
		}
	} else if rec != nil {
		if err := m.RunBreakable(64, rec.Break); err != nil {
			if ferr := finishRec(true); ferr != nil {
				fmt.Fprintln(o.stderr, "reusesim:", ferr)
			}
			return nil, false, err
		}
	} else if err := m.Run(); err != nil {
		return nil, false, err
	}
	if err := finishRec(false); err != nil {
		return nil, false, err
	}
	if m.Tel != nil {
		m.Tel.Finalize(m.Cycle())
	}
	if o.srv != nil {
		publishSample(o.srv, m, rec, true)
	}
	if flushEvents != nil {
		if err := flushEvents(); err != nil {
			return nil, false, err
		}
	}
	if orc != nil {
		fmt.Fprintf(o.stdout, "verified: %d commits cross-checked against the golden model\n", orc.Commits)
	}
	if m.Chaos != nil && !stopped {
		c := m.Chaos.C
		fmt.Fprintf(o.stdout, "chaos: %d forced revokes, %d flipped predictions, %d fetch stalls, %d jittered issues\n",
			c.ForcedRevokes, c.FlippedPredictions, c.FetchStalls, c.JitteredIssues)
	}
	if o.ledger != nil && !stopped {
		rec := runstore.FromMachine(m)
		rec.Kind = runstore.KindSim
		rec.Kernel = o.kernelName
		rec.FlightRec = o.frDir != ""
		rec.Verified = o.verify
		rec.Host.WallNS = time.Since(start).Nanoseconds()
		if err := o.ledger.Append(&rec); err != nil {
			return nil, false, err
		}
		fmt.Fprintf(o.stderr, "reusesim: ledger: recorded run %s (%s)\n", rec.ID, rec.Fingerprint)
	}
	return m, stopped, nil
}

// saveCheckpoint writes a snapshot atomically next to its final path.
func saveCheckpoint(path string, m *pipeline.Machine) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := snapshot.Save(w, m); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
