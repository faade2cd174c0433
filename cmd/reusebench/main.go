// Command reusebench regenerates every table and figure of the paper's
// evaluation, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	reusebench                  # everything
//	reusebench -table 1         # one table (1 or 2)
//	reusebench -figure 5        # one figure (5, 6, 7, 8 or 9)
//	reusebench -ablation nblt   # one ablation (nblt, nbltsweep, strategy or unroll)
//	reusebench -extension frontends  # compare vs filter cache / loop cache
//	reusebench -forcefail adi:64     # sabotage one cell; sweep still completes
//
// A simulation that aborts (watchdog, cycle budget) does not abort the
// sweep: the cell is rendered as "fail" and excluded from averages.
//
// Alongside the text report, a machine-readable throughput summary is
// written to BENCH_simcore.json (disable with -benchjson ""): simulated
// cycles, cycles/sec, ns/cycle, allocs/cycle and per-section wall time.
// CI and the perf-regression harness consume it; the text report stays
// byte-stable across timing jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"reuseiq/internal/experiments"
	"reuseiq/internal/obs"
	"reuseiq/internal/runstore"
	"reuseiq/internal/telemetry"
)

// The machine-readable summary (BENCH_simcore.json) is emitted as a
// schema-versioned runstore.BenchRecord envelope; cmd/benchdiff -json
// validates and diffs it. Cycle totals come from the Suite cache (each
// configuration simulated exactly once), so cycles/sec is true simulation
// throughput, not inflated by cache hits.

// progressRecord is one machine-readable sweep-progress record, emitted as
// a JSON line by -progress-json and as an SSE "progress" event by -listen.
type progressRecord struct {
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Kernel    string `json:"kernel"`
	IQ        int    `json:"iq"`
	Reuse     bool   `json:"reuse"`
	ElapsedMS int64  `json:"elapsed_ms"`
	EtaMS     int64  `json:"eta_ms"` // -1 while unknown
	// RunID correlates this progress record with the run-ledger record the
	// cell produced (-ledger). Empty when no ledger is attached or the cell
	// was served from cache/journal replay.
	RunID string `json:"run_id,omitempty"`
}

// makeProgressRecord derives one record from a Suite.Progress callback.
func makeProgressRecord(done, total int, sp experiments.Spec, r experiments.RunResult, elapsed time.Duration) progressRecord {
	rec := progressRecord{
		Done:      done,
		Total:     total,
		Kernel:    sp.Kernel,
		IQ:        sp.IQSize,
		Reuse:     sp.Reuse,
		ElapsedMS: elapsed.Milliseconds(),
		EtaMS:     -1,
		RunID:     r.RunID,
	}
	if done > 0 && elapsed > 0 {
		rec.EtaMS = time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Milliseconds()
	}
	return rec
}

func (r progressRecord) eta() string {
	if r.EtaMS < 0 {
		return "?"
	}
	return (time.Duration(r.EtaMS) * time.Millisecond).Round(time.Second).String()
}

func main() {
	table := flag.Int("table", 0, "regenerate one table (1 or 2)")
	figure := flag.Int("figure", 0, "regenerate one figure (5-9)")
	ablation := flag.String("ablation", "", "run one ablation (nblt, nbltsweep, strategy or unroll)")
	extension := flag.String("extension", "", "run an extension experiment (frontends)")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV into this directory")
	forcefail := flag.String("forcefail", "", "force runs of kernel[:iq] to fail, to demonstrate degraded sweeps")
	benchJSON := flag.String("benchjson", "BENCH_simcore.json", "write the throughput summary to this file (empty disables)")
	progress := flag.Bool("progress", true, "report live sweep progress (points done, ETA, current kernel) on stderr")
	progressJSON := flag.String("progress-json", "", "also write JSONL progress records to this file (\"-\" = stderr)")
	listen := flag.String("listen", "", "serve live /metrics, /events, /status and pprof on this address while the sweep runs")
	linger := flag.Duration("linger", 0, "keep the -listen server up this long after the report completes")
	ledgerPath := flag.String("ledger", "", "append a provenance-stamped run-ledger record (JSONL) for every simulated cell to this file; query with reusereport")
	journal := flag.String("journal", "", "journal completed sweep cells (run-ledger records + mid-cell checkpoints) under this path for crash recovery")
	resume := flag.Bool("resume", false, "with -journal, resume a previous (killed) sweep: skip recorded cells, restore in-flight ones from checkpoints")
	ckptEvery := flag.Uint64("ckpt-every", 0, "with -journal, cycles between mid-cell checkpoints (0 = default 2000000)")
	sizesFlag := flag.String("sizes", "", "comma-separated IQ sizes for figures 5-8 (default 32,64,128,256)")
	flag.Parse()

	sizes := experiments.DefaultSizes
	if *sizesFlag != "" {
		sizes = nil
		for _, fld := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(fld))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "reusebench: bad -sizes %q\n", *sizesFlag)
				os.Exit(1)
			}
			sizes = append(sizes, n)
		}
	}

	s := experiments.NewSuite()
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "reusebench: -resume requires -journal")
		os.Exit(1)
	}
	var led *runstore.Ledger
	if *ledgerPath != "" {
		var err error
		led, err = s.AttachLedger(*ledgerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		defer led.Close()
	}
	if *journal != "" {
		j, n, err := s.AttachJournal(*journal, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		defer j.Close()
		if *ckptEvery > 0 {
			j.CheckpointEvery = *ckptEvery
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "reusebench: journal: recovered %d completed cells from %s\n", n, *journal)
		}
	}

	var srv *obs.Server
	if *listen != "" {
		srv = obs.NewServer()
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		if led != nil {
			srv.SetRunSource(led.Records)
		}
		fmt.Fprintf(os.Stderr, "reusebench: obs: listening on http://%s (/metrics /events /status /dashboard /debug/pprof)\n", addr)
	}

	var progressOut io.Writer
	if *progressJSON != "" {
		if *progressJSON == "-" {
			progressOut = os.Stderr
		} else {
			f, err := os.Create(*progressJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reusebench:", err)
				os.Exit(1)
			}
			defer f.Close()
			progressOut = f
		}
	}

	if *progress || progressOut != nil || srv != nil {
		human := *progress
		var sweepStart time.Time
		s.Progress = func(done, total int, sp experiments.Spec, r experiments.RunResult) {
			// Serialized by Prewarm; stderr only, so report text stays stable.
			if done == 1 {
				sweepStart = time.Now()
			}
			rec := makeProgressRecord(done, total, sp, r, time.Since(sweepStart))
			if human {
				fmt.Fprintf(os.Stderr, "\rreusebench: %d/%d points, eta %s  (%s iq=%d)\x1b[K",
					done, total, rec.eta(), sp.Kernel, sp.IQSize)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
			if progressOut != nil || srv != nil {
				data, err := json.Marshal(rec)
				if err == nil {
					if progressOut != nil {
						progressOut.Write(append(data, '\n'))
					}
					if srv != nil {
						srv.PublishEvent("progress", data)
					}
				}
			}
		}
	}
	if *forcefail != "" {
		kernel, iqSize := *forcefail, 0
		if i := strings.IndexByte(kernel, ':'); i >= 0 {
			n, err := strconv.Atoi(kernel[i+1:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "reusebench: bad -forcefail %q: %v\n", *forcefail, err)
				os.Exit(1)
			}
			kernel, iqSize = kernel[:i], n
		}
		s.Sabotage = func(sp experiments.Spec) bool {
			return sp.Kernel == kernel && (iqSize == 0 || sp.IQSize == iqSize)
		}
	}
	if srv != nil {
		reg := &telemetry.Registry{}
		s.RegisterMetrics(reg)
		publish := func() {
			srv.Publish(obs.Sample{
				Cycle:   s.TotalCycles(),
				Metrics: reg.TypedSnapshot(),
				Status:  s.Sweep(),
			})
		}
		publish() // readyz goes 200 before the first sweep point lands
		stop := make(chan struct{})
		var tick sync.WaitGroup
		tick.Add(1)
		go func() {
			defer tick.Done()
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					publish()
				case <-stop:
					return
				}
			}
		}()
		defer func() {
			close(stop)
			tick.Wait()
			publish() // final state for late scrapes
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "reusebench: obs: lingering %s for late scrapes\n", *linger)
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	all := *table == 0 && *figure == 0 && *ablation == "" && *extension == ""

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "reusebench:", err)
		os.Exit(1)
	}
	writeCSV := func(name string, write func(*os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fail(err)
		}
	}
	var sections []runstore.BenchSection
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		sections = append(sections, runstore.BenchSection{
			Name: name, Wall: d.Round(time.Millisecond).String(), WallNS: d.Nanoseconds(),
		})
	}

	if all || *table == 1 {
		timed("table1", func() { fmt.Println(experiments.Table1()) })
	}
	if all || *table == 2 {
		timed("table2", func() { fmt.Println(experiments.Table2()) })
	}
	if all || *figure == 5 {
		timed("figure5", func() {
			f, err := s.Figure5(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure5.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 6 {
		timed("figure6", func() {
			f, err := s.Figure6(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure6.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 7 {
		timed("figure7", func() {
			f, err := s.Figure7(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure7.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 8 {
		timed("figure8", func() {
			f, err := s.Figure8(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure8.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 9 {
		timed("figure9", func() {
			f, err := s.Figure9()
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure9.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *ablation == "nblt" {
		timed("ablation_nblt", func() {
			a, err := s.AblationNBLT()
			if err != nil {
				fail(err)
			}
			fmt.Println(a)
		})
	}
	if all || *ablation == "strategy" {
		timed("ablation_strategy", func() {
			a, err := s.AblationStrategy()
			if err != nil {
				fail(err)
			}
			fmt.Println(a)
		})
	}
	if all || *ablation == "nbltsweep" {
		timed("ablation_nbltsweep", func() {
			sw, err := s.SweepNBLTSizes([]int{0, 2, 4, 8, 16})
			if err != nil {
				fail(err)
			}
			fmt.Println(sw)
		})
	}
	if all || *ablation == "unroll" {
		timed("ablation_unroll", func() {
			a, err := s.AblationUnroll(4)
			if err != nil {
				fail(err)
			}
			fmt.Println(a)
		})
	}
	if all || *extension == "frontends" {
		timed("extension_frontends", func() {
			c, err := s.CompareFrontEnds()
			if err != nil {
				fail(err)
			}
			fmt.Println(c)
		})
	}

	if *benchJSON != "" {
		wall := time.Since(start)
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		th := runstore.BenchThroughput{
			SimulatedCycles: s.TotalCycles(),
			WallNS:          wall.Nanoseconds(),
			Wall:            wall.Round(time.Millisecond).String(),
		}
		if th.SimulatedCycles > 0 {
			th.CyclesPerSec = float64(th.SimulatedCycles) / wall.Seconds()
			th.NSPerCycle = float64(wall.Nanoseconds()) / float64(th.SimulatedCycles)
			th.AllocsPerCycle = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(th.SimulatedCycles)
		}
		rec := &runstore.BenchRecord{
			V: runstore.BenchSchemaVersion, Kind: runstore.BenchSimcore,
			Throughput: &th, Sections: sections,
		}
		if err := runstore.WriteBenchRecord(*benchJSON, rec); err != nil {
			fail(err)
		}
	}
	fmt.Printf("(completed in %s)\n", time.Since(start).Round(time.Second))
}
