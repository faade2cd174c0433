// Command reusereport queries the run ledger that reusesim -ledger and
// reusebench -ledger append to: listing runs by provenance, diffing any two
// runs or run-sets counter by counter, running the cross-run regression
// sentinel, and rendering a single-file HTML report.
//
// Usage:
//
//	reusereport -ledger runs.jsonl list                 # table of runs
//	reusereport -ledger runs.jsonl list kernel=aps      # filtered
//	reusereport -ledger runs.jsonl show 3fa9            # one full record
//	reusereport -ledger runs.jsonl diff 3fa9 81c2       # run vs run
//	reusereport -ledger runs.jsonl diff reuse=false reuse=true
//	reusereport -ledger runs.jsonl check                # regression sentinel
//	reusereport -ledger runs.jsonl html -o report.html  # HTML report
//
// A selector is a run id (or unique prefix of at least 4 hex digits) naming
// one run, or a comma-separated filter expression naming a set:
//
//	kind=sim|cell kernel=NAME fp=FINGERPRINT iq=N reuse=BOOL last=N
//
// fp matches the full "cfghash:proghash" form or a bare config-hash prefix.
// Diffing sets compares per-metric means, so "diff reuse=false reuse=true"
// reproduces the paper's baseline-versus-reuse comparison over everything
// ever recorded.
//
// Exit codes: 0 success (check: sentinel passed), 1 check found modeled
// drift, 2 usage or ledger error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"reuseiq/internal/runstore"
)

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: reusereport -ledger FILE {list|show|diff|check|html} [args]  (see go doc reuseiq/cmd/reusereport)")
	return 2
}

func mainImpl(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reusereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "runs.jsonl", "run ledger file to query (written by reusesim/reusebench -ledger)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		return usage(stderr)
	}
	recs, err := runstore.Load(*ledger)
	if err != nil {
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "list":
		return cmdList(recs, rest, stdout, stderr)
	case "show":
		return cmdShow(recs, rest, stdout, stderr)
	case "diff":
		return cmdDiff(recs, rest, stdout, stderr)
	case "check":
		return cmdCheck(recs, rest, stdout, stderr)
	case "html":
		return cmdHTML(recs, rest, stderr)
	}
	fmt.Fprintf(stderr, "reusereport: unknown command %q\n", cmd)
	return usage(stderr)
}

// parseFilter parses a comma-separated key=value filter expression.
func parseFilter(expr string) (runstore.Filter, error) {
	var f runstore.Filter
	if expr == "" {
		return f, nil
	}
	for _, kv := range strings.Split(expr, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("bad filter term %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "kind":
			f.Kind = v
		case "kernel":
			f.Kernel = v
		case "fp", "fingerprint":
			f.Fingerprint = v
		case "iq":
			f.IQSize, err = strconv.Atoi(v)
		case "reuse":
			var b bool
			if b, err = strconv.ParseBool(v); err == nil {
				f.Reuse = &b
			}
		case "last":
			f.Last, err = strconv.Atoi(v)
		default:
			return f, fmt.Errorf("unknown filter key %q", k)
		}
		if err != nil {
			return f, fmt.Errorf("bad filter term %q: %v", kv, err)
		}
	}
	return f, nil
}

// isRunID reports whether sel looks like a run id or id prefix (>= 4 hex
// digits, no "=" so filter expressions never shadow it).
func isRunID(sel string) bool {
	if len(sel) < 4 || len(sel) > 16 {
		return false
	}
	for _, c := range sel {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

// selectRecords resolves a selector — run id/prefix or filter expression —
// against the loaded records.
func selectRecords(recs []runstore.Record, sel string) ([]runstore.Record, error) {
	if isRunID(sel) {
		var hits []runstore.Record
		for _, r := range recs {
			if strings.HasPrefix(r.ID, sel) {
				hits = append(hits, r)
			}
		}
		switch len(hits) {
		case 0:
			return nil, fmt.Errorf("no run with id %s", sel)
		case 1:
			return hits, nil
		}
		return nil, fmt.Errorf("id prefix %s is ambiguous (%d runs)", sel, len(hits))
	}
	f, err := parseFilter(sel)
	if err != nil {
		return nil, err
	}
	out := f.Select(recs)
	if len(out) == 0 {
		return nil, fmt.Errorf("no runs match %q", sel)
	}
	return out, nil
}

func cmdList(recs []runstore.Record, args []string, stdout, stderr io.Writer) int {
	sel := strings.Join(args, ",")
	out := recs
	if sel != "" {
		var err error
		out, err = selectRecords(recs, sel)
		if err != nil {
			fmt.Fprintln(stderr, "reusereport:", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "id\tkind\tstart\tkernel\tiq\treuse\tconfig\tcycles\tIPC\twall\terr\t")
	for _, r := range out {
		reuse := "off"
		if r.Reuse {
			reuse = "on"
		}
		errCol := ""
		if r.Err != "" {
			errCol = "err"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\t%s\t%d\t%.3f\t%s\t%s\t\n",
			r.ID[:8], r.Kind, r.Start.Format("01-02 15:04:05"), r.Kernel, r.IQSize,
			reuse, r.ConfigHash()[:8], r.Cycles, r.IPC,
			r.Host.Wall().Round(time.Millisecond), errCol)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d run(s)\n", len(out))
	return 0
}

func cmdShow(recs []runstore.Record, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reusereport show", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print the raw JSON record")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: reusereport show [-json] <id>")
		return 2
	}
	hits, err := selectRecords(recs, fs.Arg(0))
	if err != nil || len(hits) != 1 {
		if err == nil {
			err = fmt.Errorf("selector %q names %d runs, show wants one", fs.Arg(0), len(hits))
		}
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	r := hits[0]
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r)
		return 0
	}
	fmt.Fprintf(stdout, "run         %s (%s)\n", r.ID, r.Kind)
	fmt.Fprintf(stdout, "start       %s\n", r.Start.Format(time.RFC3339))
	fmt.Fprintf(stdout, "workload    kernel=%s iq=%d reuse=%v dist=%v nblt=%d\n",
		r.Kernel, r.IQSize, r.Reuse, r.Distributed, r.NBLTSize)
	fmt.Fprintf(stdout, "fingerprint %s\n", r.Fingerprint)
	fmt.Fprintf(stdout, "flags       flightrec=%v verified=%v chaos_seed=%d retried=%v\n",
		r.FlightRec, r.Verified, r.ChaosSeed, r.Retried)
	fmt.Fprintf(stdout, "result      cycles=%d commits=%d ipc=%.3f gated=%.1f%%\n",
		r.Cycles, r.Commits, r.IPC, 100*r.Gated)
	if r.Err != "" {
		fmt.Fprintf(stdout, "error       %s\n", r.Err)
	}
	fmt.Fprintf(stdout, "host        %s %s/%s go=%s cpus=%d wall=%s\n",
		r.Host.Hostname, r.Host.GoOS, r.Host.GoArch, r.Host.GoVersion,
		r.Host.CPUs, r.Host.Wall().Round(time.Microsecond))
	if len(r.Energy) > 0 {
		names := make([]string, 0, len(r.Energy))
		for n := range r.Energy {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "energy     ")
		for _, n := range names {
			fmt.Fprintf(stdout, " %s=%.3f", n, r.Energy[n])
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\n%d counters, %d gauges, %d histograms:\n",
		len(r.Metrics.Counters), len(r.Metrics.Gauges), len(r.Metrics.Hists))
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	for _, c := range r.Metrics.Counters {
		fmt.Fprintf(tw, "%s\t%d\t\n", c.Name, c.Value)
	}
	for _, g := range r.Metrics.Gauges {
		fmt.Fprintf(tw, "%s\t%.6g\t\n", g.Name, g.Value)
	}
	tw.Flush()
	return 0
}

func cmdDiff(recs []runstore.Record, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reusereport diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "show unchanged metrics too")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: reusereport diff [-all] <selector> <selector>")
		return 2
	}
	a, err := selectRecords(recs, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	b, err := selectRecords(recs, fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	d := runstore.Diff(a, b)
	if err := d.WriteText(stdout, !*all); err != nil {
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	return 0
}

func cmdCheck(recs []runstore.Record, args []string, stdout, stderr io.Writer) int {
	sel := strings.Join(args, ",")
	out := recs
	if sel != "" {
		var err error
		out, err = selectRecords(recs, sel)
		if err != nil {
			fmt.Fprintln(stderr, "reusereport:", err)
			return 2
		}
	}
	rep := runstore.Sentinel(out)
	if err := rep.WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	if !rep.Pass() {
		return 1
	}
	return 0
}

func cmdHTML(recs []runstore.Record, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("reusereport html", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "report.html", "output file")
	title := fs.String("title", "reuseiq run ledger", "report title")
	diffA := fs.String("a", "", "selector for the diff section's A side (with -b)")
	diffB := fs.String("b", "", "selector for the diff section's B side (with -a)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: reusereport html [-o FILE] [-title T] [-a SEL -b SEL]")
		return 2
	}
	var d *runstore.DiffReport
	if (*diffA == "") != (*diffB == "") {
		fmt.Fprintln(stderr, "reusereport: -a and -b must be given together")
		return 2
	}
	if *diffA != "" {
		a, err := selectRecords(recs, *diffA)
		if err != nil {
			fmt.Fprintln(stderr, "reusereport:", err)
			return 2
		}
		b, err := selectRecords(recs, *diffB)
		if err != nil {
			fmt.Fprintln(stderr, "reusereport:", err)
			return 2
		}
		d = runstore.Diff(a, b)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "reusereport:", err)
		return 2
	}
	werr := runstore.WriteHTML(f, *title, recs, runstore.Sentinel(recs), d)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(stderr, "reusereport:", werr)
		return 2
	}
	fmt.Fprintf(stderr, "reusereport: wrote %s (%d run(s))\n", *out, len(recs))
	return 0
}
