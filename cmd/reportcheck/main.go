// Command reportcheck is the run-ledger gate in `make check`: it scripts the
// whole ledger pipeline end to end and fails loudly if any stage lies.
//
//	reportcheck            # run the gate (from the repo root)
//	reportcheck -update    # regenerate the golden wire-format files
//
// The gate:
//
//  1. simulates the same kernel twice, recording both runs into a fresh
//     ledger, and requires the regression sentinel to PASS: the runs are
//     fingerprint-identical, so every modeled counter must be bit-identical;
//  2. injects a single +1 drift into one modeled counter of a copied record
//     and requires the sentinel to FAIL naming exactly that counter — proving
//     the oracle actually has teeth, not just a green lamp;
//  3. serves the ledger through internal/obs and validates the /runs and
//     /runs/{id} wire formats golden-file style (the structural skeleton —
//     JSON key paths and value types — is pinned in testdata, so a silent
//     field rename or type change breaks the gate, while values are free to
//     vary run to run), plus the /dashboard page's load-bearing structure.
//
// Exit codes: 0 gate passed, 1 a stage failed, 2 setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"reuseiq/internal/cell"
	"reuseiq/internal/obs"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/runstore"
)

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

func mainImpl(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reportcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	update := fs.Bool("update", false, "rewrite the golden wire-format files instead of comparing")
	golden := fs.String("golden", "cmd/reportcheck/testdata", "directory of golden wire-format files")
	kernel := fs.String("kernel", "aps", "kernel to simulate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "reportcheck: "+format+"\n", a...)
		return 1
	}

	dir, err := os.MkdirTemp("", "reportcheck-*")
	if err != nil {
		fmt.Fprintln(stderr, "reportcheck:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	// Stage 1: two scripted runs of the same configuration into a fresh
	// ledger; the sentinel must find one comparable group and zero drift.
	led, err := runstore.Open(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		fmt.Fprintln(stderr, "reportcheck:", err)
		return 2
	}
	defer led.Close()
	sp := cell.Spec{Kernel: *kernel, IQSize: 64, Reuse: true, NBLTSize: cell.DefaultNBLT}
	p, _, err := sp.Program()
	if err != nil {
		return fail("%v", err)
	}
	for i := 0; i < 2; i++ {
		start := time.Now()
		m := pipeline.New(sp.Config(), p)
		if err := m.Run(); err != nil {
			return fail("run %d: %v", i+1, err)
		}
		rec := runstore.FromMachine(sp, m)
		rec.Kind = runstore.KindSim
		rec.Host.WallNS = time.Since(start).Nanoseconds()
		if err := led.Append(&rec); err != nil {
			return fail("append run %d: %v", i+1, err)
		}
	}
	recs := led.Records()
	rep := runstore.Sentinel(recs)
	if !rep.Pass() {
		_ = rep.WriteText(stderr)
		return fail("sentinel FAILED on two identical-fingerprint runs: the simulator is not deterministic over its modeled inputs")
	}
	if len(rep.Groups) != 1 || len(rep.Groups[0].RunIDs) != 2 {
		return fail("sentinel grouped %d/%d, want one group of two runs", len(rep.Groups), rep.Singles)
	}
	fmt.Fprintf(stdout, "reportcheck: sentinel PASS on 2 identical runs of %s (%s)\n",
		*kernel, recs[0].Fingerprint)

	// Stage 2: inject a +1 drift into one modeled counter of a copied
	// record; the sentinel must fail and name that counter.
	bad := recs[1]
	bad.ID = "" // Sentinel does not mind, but keep ids unique for the report
	bad.Metrics.Counters = append([]runstore.Counter(nil), bad.Metrics.Counters...)
	driftName := ""
	for i, c := range bad.Metrics.Counters {
		if runstore.Modeled(c.Name) && c.Name != "sim.cycles" && c.Name != "sim.commits" {
			bad.Metrics.Counters[i].Value++
			driftName = c.Name
			break
		}
	}
	if driftName == "" {
		return fail("no modeled counter found to inject drift into")
	}
	drifted := runstore.Sentinel(append(append([]runstore.Record(nil), recs...), bad))
	if drifted.Pass() {
		return fail("sentinel MISSED an injected +1 drift in %s", driftName)
	}
	named := false
	for _, d := range drifted.Drifts() {
		if d.Name == driftName {
			named = true
		}
	}
	if !named {
		return fail("sentinel failed but did not name the drifted counter %s: %v", driftName, drifted.Drifts())
	}
	fmt.Fprintf(stdout, "reportcheck: sentinel caught injected +1 drift in %s\n", driftName)

	// Stage 3: wire formats. Serve the ledger and pin the JSON skeletons.
	srv := obs.NewServer()
	srv.SetRunSource(led.Records)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "reportcheck:", err)
		return 2
	}
	defer srv.Close()
	base := "http://" + addr

	listing, err := fetch(base + "/runs")
	if err != nil {
		return fail("/runs: %v", err)
	}
	if err := checkShape(listing, filepath.Join(*golden, "runs_wire.golden"), *update); err != nil {
		return fail("/runs wire format: %v", err)
	}
	record, err := fetch(base + "/runs/" + recs[0].ID)
	if err != nil {
		return fail("/runs/{id}: %v", err)
	}
	if err := checkShape(record, filepath.Join(*golden, "run_wire.golden"), *update); err != nil {
		return fail("/runs/{id} wire format: %v", err)
	}

	resp, err := http.Get(base + "/dashboard")
	if err != nil {
		return fail("/dashboard: %v", err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		return fail("/dashboard: status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"EventSource(\"/events\")", "/runs?last=25", "id=\"bar\""} {
		if !strings.Contains(string(page), want) {
			return fail("/dashboard page lost its %q wiring", want)
		}
	}
	if *update {
		fmt.Fprintln(stdout, "reportcheck: golden wire-format files updated")
		return 0
	}
	fmt.Fprintln(stdout, "reportcheck: /runs, /runs/{id} and /dashboard wire formats ok")
	return 0
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// checkShape compares the structural skeleton of a JSON payload — sorted
// "path type" lines, with array indices collapsed to [] — against a golden
// file, or rewrites the golden with -update.
func checkShape(data []byte, goldenPath string, update bool) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("not JSON: %v", err)
	}
	lines := map[string]bool{}
	walkShape("", v, lines)
	sorted := make([]string, 0, len(lines))
	for l := range lines {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			return err
		}
		return os.WriteFile(goldenPath, []byte(got), 0o644)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%v (regenerate with reportcheck -update)", err)
	}
	if got != string(want) {
		return fmt.Errorf("skeleton drifted from %s:\n%s", goldenPath, diffLines(string(want), got))
	}
	return nil
}

// walkShape records every key path and scalar type in v. Array elements all
// share one [] path so variable-length lists don't churn the golden.
func walkShape(path string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			walkShape(p, e, out)
		}
	case []any:
		if len(x) == 0 {
			out[path+"[] empty"] = true
			return
		}
		for _, e := range x {
			walkShape(path+"[]", e, out)
		}
	case string:
		out[path+" string"] = true
	case float64:
		out[path+" number"] = true
	case bool:
		out[path+" bool"] = true
	case nil:
		out[path+" null"] = true
	}
}

func diffLines(want, got string) string {
	ws := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		ws[l] = true
	}
	gs := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		gs[l] = true
	}
	var b strings.Builder
	for l := range gs {
		if !ws[l] {
			fmt.Fprintf(&b, "  + %s\n", l)
		}
	}
	for l := range ws {
		if !gs[l] {
			fmt.Fprintf(&b, "  - %s\n", l)
		}
	}
	return b.String()
}
