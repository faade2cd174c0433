// Command benchdiff compares two `go test -bench` output files and fails on
// performance regressions. It is the repo's stand-in for benchstat, written
// against the same text format so `make bench` needs no external tooling:
//
//	benchdiff old.txt new.txt
//	benchdiff -threshold 10 -watch BenchmarkSimulatorSpeed old.txt new.txt
//	benchdiff -json BENCH_simcore.json new_simcore.json
//
// Every benchmark present in both files is reported; benchmarks present in
// only one file are listed separately so a renamed or deleted benchmark
// cannot silently drop out of the gate. The exit status is 1 when a watched
// benchmark's ns/op or allocs/op regresses by more than the threshold, and 2
// on usage or input errors (including malformed benchmark lines). With
// -count > 1 runs per benchmark, the best (minimum) value of each metric is
// used, which is robust to scheduler noise.
//
// With -json the inputs are the schema-versioned runstore.BenchRecord files
// reusebench writes (BENCH_simcore.json). Both inputs are validated — a
// malformed or future-version record exits 2, never a silent mis-diff — then
// diffed metric by metric; watched metrics (-watch, default ns_per_cycle and
// allocs_per_cycle) that grow beyond the threshold fail the run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"reuseiq/internal/runstore"
)

// metrics maps unit ("ns/op", "allocs/op", ...) to the best observed value.
type metrics map[string]float64

func parseFile(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, path)
}

func parse(r io.Reader, path string) (map[string]metrics, error) {
	out := map[string]metrics{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if len(fields) < 4 || len(fields)%2 != 0 {
			return nil, fmt.Errorf("%s:%d: malformed benchmark line %q", path, line, sc.Text())
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so baselines survive a core-count change.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.ParseUint(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("%s:%d: bad iteration count %q", path, line, fields[1])
		}
		m := out[name]
		if m == nil {
			m = metrics{}
			out[name] = m
		}
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad value %q for unit %q", path, line, fields[i], fields[i+1])
			}
			unit := fields[i+1]
			if old, ok := m[unit]; !ok || v < old {
				m[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// only returns the sorted names present in a but not in b.
func only(a, b map[string]metrics) []string {
	var names []string
	for name := range a {
		if _, ok := b[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

func mainImpl(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 10, "maximum allowed regression in percent")
	watch := fs.String("watch", "", "comma-separated benchmarks (or, with -json, metrics) whose regression fails the run")
	jsonMode := fs.Bool("json", false, "inputs are runstore.BenchRecord files (BENCH_simcore.json), validated then diffed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold pct] [-watch names] [-json] old new")
		return 2
	}
	if *jsonMode {
		if *watch == "" {
			*watch = "ns_per_cycle,allocs_per_cycle"
		}
		return jsonImpl(fs.Arg(0), fs.Arg(1), *threshold, *watch, stdout, stderr)
	}
	if *watch == "" {
		*watch = "BenchmarkSimulatorSpeed"
	}
	old, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v (run `make bench-baseline` to create the baseline)\n", err)
		return 2
	}
	cur, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	watched := map[string]bool{}
	for _, w := range strings.Split(*watch, ",") {
		if w = strings.TrimSpace(w); w != "" {
			watched[w] = true
		}
	}

	var names []string
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no common benchmarks between the two files")
		return 2
	}

	failed := false
	fmt.Fprintf(stdout, "%-34s %-12s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, name := range names {
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			ov, ook := old[name][unit]
			nv, nok := cur[name][unit]
			if !ook || !nok {
				continue
			}
			delta := 0.0
			if ov != 0 {
				delta = (nv - ov) / ov * 100
			} else if nv != 0 {
				delta = 100 // from zero: any growth is a full regression
			}
			mark := ""
			if watched[name] && unit != "B/op" && delta > *threshold {
				mark = "  REGRESSION"
				failed = true
			}
			fmt.Fprintf(stdout, "%-34s %-12s %14.1f %14.1f %+8.1f%%%s\n", name, unit, ov, nv, delta, mark)
		}
	}
	for _, name := range only(old, cur) {
		fmt.Fprintf(stdout, "%-34s only in %s\n", name, fs.Arg(0))
		if watched[name] {
			// A watched benchmark that vanished is a gate bypass, not a pass.
			fmt.Fprintf(stderr, "benchdiff: watched benchmark %s missing from %s\n", name, fs.Arg(1))
			failed = true
		}
	}
	for _, name := range only(cur, old) {
		fmt.Fprintf(stdout, "%-34s only in %s\n", name, fs.Arg(1))
	}
	if failed {
		fmt.Fprintf(stderr, "benchdiff: watched benchmark regressed more than %.0f%%\n", *threshold)
		return 1
	}
	fmt.Fprintf(stdout, "ok: no watched benchmark regressed more than %.0f%%\n", *threshold)
	return 0
}

// jsonImpl diffs two validated BenchRecord files. Watched metrics are
// lower-is-better (times, allocs): growth beyond the threshold fails.
func jsonImpl(oldPath, newPath string, threshold float64, watch string, stdout, stderr io.Writer) int {
	old, err := runstore.ReadBenchRecord(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cur, err := runstore.ReadBenchRecord(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	d, err := runstore.DiffBench(old, cur)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	watched := map[string]bool{}
	for _, w := range strings.Split(watch, ",") {
		if w = strings.TrimSpace(w); w != "" {
			watched[w] = true
		}
	}
	failed := false
	fmt.Fprintf(stdout, "%-34s %18s %18s %9s\n", "metric", "old", "new", "delta")
	for _, row := range d.Rows {
		switch {
		case !row.AOK:
			fmt.Fprintf(stdout, "%-34s only in %s\n", row.Name, newPath)
			continue
		case !row.BOK:
			fmt.Fprintf(stdout, "%-34s only in %s\n", row.Name, oldPath)
			if watched[row.Name] {
				fmt.Fprintf(stderr, "benchdiff: watched metric %s missing from %s\n", row.Name, newPath)
				failed = true
			}
			continue
		}
		delta := 0.0
		if row.A != 0 {
			delta = (row.B - row.A) / row.A * 100
		} else if row.B != 0 {
			delta = 100
		}
		mark := ""
		if watched[row.Name] && delta > threshold {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(stdout, "%-34s %18.3f %18.3f %+8.1f%%%s\n", row.Name, row.A, row.B, delta, mark)
	}
	if failed {
		fmt.Fprintf(stderr, "benchdiff: watched metric regressed more than %.0f%%\n", threshold)
		return 1
	}
	fmt.Fprintf(stdout, "ok: no watched metric regressed more than %.0f%%\n", threshold)
	return 0
}
