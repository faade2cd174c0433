package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"reuseiq/internal/cell"
)

func ledgerPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "runs.jsonl")
}

// testRecord builds a minimal modeled record: two fingerprint-identical
// testRecords must pass the sentinel.
func testRecord(id, fp string, wall time.Duration) Record {
	return Record{
		ID:          id,
		Kind:        KindSim,
		Start:       time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC),
		Spec:        cell.Spec{Kernel: "aps", IQSize: 64, Reuse: true, NBLTSize: 8},
		Fingerprint: fp,
		Cycles:      1000,
		Commits:     2500,
		IPC:         2.5,
		Metrics: Metrics{
			Counters: []Counter{
				{Name: "commit.loads", Value: 400},
				{Name: "iq.dispatches", Value: 2600},
				{Name: "sim.commits", Value: 2500},
				{Name: "sim.cycles", Value: 1000},
				{Name: "telemetry.events", Value: 7}, // observer-dependent
			},
			Gauges: []Gauge{{Name: "sim.ipc", Value: 2.5}},
		},
		Energy: map[string]float64{"issueq": 123.5, "total": 900.25},
		Host:   Host{GoOS: "linux", GoArch: "amd64", CPUs: 8, GoVersion: "go1.22", WallNS: wall.Nanoseconds()},
	}
}

func TestLedgerAppendReopen(t *testing.T) {
	path := ledgerPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord("", "aaaa000000000000:bbbb000000000000", time.Second)
	if err := l.Append(&a); err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || len(a.ID) != 16 {
		t.Fatalf("Append assigned id %q, want 16 hex digits", a.ID)
	}
	if a.V != SchemaVersion {
		t.Fatalf("Append stamped version %d, want %d", a.V, SchemaVersion)
	}
	b := testRecord("feedfacecafebeef", "aaaa000000000000:bbbb000000000000", 2*time.Second)
	if err := l.Append(&b); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("reopened ledger holds %d records, want 2", len(recs))
	}
	if !reflect.DeepEqual(recs[0], a) || !reflect.DeepEqual(recs[1], b) {
		t.Errorf("reopened records differ from appended:\n got %+v\nand %+v", recs[0], recs[1])
	}
	if got, ok := r.Get("feedfacecafebeef"); !ok || got.ID != b.ID {
		t.Errorf("Get by full id failed: %+v %v", got, ok)
	}
	if got, ok := r.Get("feedface"); !ok || got.ID != b.ID {
		t.Errorf("Get by prefix failed: %+v %v", got, ok)
	}
	if _, ok := r.Get("fee"); ok {
		t.Error("3-char prefix resolved; prefixes need at least 4 digits")
	}
}

func TestLedgerTornTailTruncated(t *testing.T) {
	path := ledgerPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord("", "cccc000000000000:dddd000000000000", time.Second)
	if err := l.Append(&a); err != nil {
		t.Fatal(err)
	}
	l.Close()
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// A kill mid-append leaves a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"id":"dead`)
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("recovered %d records, want the 1 complete one", r.Len())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != good.Size() {
		t.Errorf("torn tail not truncated: %d bytes, want %d", st.Size(), good.Size())
	}
	// Appending after truncation must yield a well-formed log again.
	b := testRecord("", "cccc000000000000:dddd000000000000", time.Second)
	if err := r.Append(&b); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("post-truncation ledger holds %d records, want 2", r2.Len())
	}
}

func TestLedgerVersionMismatch(t *testing.T) {
	path := ledgerPath(t)
	if err := os.WriteFile(path, []byte(`{"v":2,"id":"0123456789abcdef"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("future-version record accepted")
	}
}

func TestLedgerNilIsDisabled(t *testing.T) {
	var l *Ledger
	rec := testRecord("", "eeee000000000000:ffff000000000000", time.Second)
	if err := l.Append(&rec); err != nil {
		t.Fatalf("nil ledger Append: %v", err)
	}
	if l.Len() != 0 || l.Records() != nil || l.Select(Filter{}) != nil {
		t.Error("nil ledger is not empty")
	}
	if _, ok := l.Get("0123456789abcdef"); ok {
		t.Error("nil ledger resolved an id")
	}
}

func TestLedgerSelect(t *testing.T) {
	path := ledgerPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mk := func(kernel string, iq int, reuse bool, fp string) {
		r := testRecord("", fp, time.Second)
		r.Kernel, r.IQSize, r.Reuse = kernel, iq, reuse
		if err := l.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	mk("aps", 64, true, "1111000000000000:2222000000000000")
	mk("aps", 128, true, "3333000000000000:2222000000000000")
	mk("adi", 64, false, "4444000000000000:5555000000000000")

	if got := l.Select(Filter{Kernel: "aps"}); len(got) != 2 {
		t.Errorf("Kernel filter: %d records, want 2", len(got))
	}
	if got := l.Select(Filter{IQSize: 128}); len(got) != 1 {
		t.Errorf("IQSize filter: %d records, want 1", len(got))
	}
	f := false
	if got := l.Select(Filter{Reuse: &f}); len(got) != 1 || got[0].Kernel != "adi" {
		t.Errorf("Reuse filter: %+v", got)
	}
	if got := l.Select(Filter{Fingerprint: "3333000000000000:2222000000000000"}); len(got) != 1 {
		t.Errorf("full fingerprint filter: %d records, want 1", len(got))
	}
	if got := l.Select(Filter{Fingerprint: "1111"}); len(got) != 1 {
		t.Errorf("config-hash prefix filter: %d records, want 1", len(got))
	}
	if got := l.Select(Filter{Kernel: "aps", Last: 1}); len(got) != 1 || got[0].IQSize != 128 {
		t.Errorf("Last filter: %+v", got)
	}
}

func TestModeledClassification(t *testing.T) {
	modeled := []string{"sim.cycles", "iq.dispatches", "reuse.detections", "fu.ialu", "nblt.hits", "il1.accesses"}
	observer := []string{"ffwd.engagements", "flightrec.checkpoints_taken", "telemetry.events", "snapshot.saves", "sweep.cells", "obs.scrapes", "hist.session_cycles"}
	for _, n := range modeled {
		if !Modeled(n) {
			t.Errorf("%s classified observer-dependent, want modeled", n)
		}
	}
	for _, n := range observer {
		if Modeled(n) {
			t.Errorf("%s classified modeled, want observer-dependent", n)
		}
	}
}

// TestSentinelCatchesInjectedDrift is the acceptance-criteria oracle test: a
// single modeled counter drifting by one count between fingerprint-identical
// runs must fail the sentinel, naming the counter; observer-dependent
// counters may differ freely.
func TestSentinelCatchesInjectedDrift(t *testing.T) {
	fp := "abcd000000000000:ef01000000000000"
	a := testRecord("aaaaaaaaaaaaaaaa", fp, 100*time.Millisecond)
	b := testRecord("bbbbbbbbbbbbbbbb", fp, 150*time.Millisecond)
	// Observer-side divergence is fine.
	b.Metrics.Counters[4].Value += 99 // telemetry.events

	rep := Sentinel([]Record{a, b})
	if !rep.Pass() {
		t.Fatalf("identical modeled counters failed the sentinel: %+v", rep.Drifts())
	}
	if len(rep.Groups) != 1 || len(rep.Groups[0].RunIDs) != 2 {
		t.Fatalf("grouping wrong: %+v", rep.Groups)
	}

	// Inject a 1-count drift in a modeled activity counter.
	b.Metrics.Counters[1].Value++ // iq.dispatches
	rep = Sentinel([]Record{a, b})
	if rep.Pass() {
		t.Fatal("sentinel missed a 1-count drift in iq.dispatches")
	}
	drifts := rep.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("got %d drifts, want exactly the injected one: %+v", len(drifts), drifts)
	}
	d := drifts[0]
	if d.Name != "iq.dispatches" || d.Base != "2600" || d.Run != "2601" {
		t.Errorf("drift misreported: %+v", d)
	}
	if d.BaseID != a.ID || d.RunID != b.ID {
		t.Errorf("drift ids misreported: %+v", d)
	}
}

func TestSentinelHeadlineAndEnergyDrift(t *testing.T) {
	fp := "abcd000000000000:ef01000000000000"
	a := testRecord("aaaaaaaaaaaaaaaa", fp, time.Second)
	b := testRecord("bbbbbbbbbbbbbbbb", fp, time.Second)
	b.Cycles++
	b.Energy["issueq"] += 0.5
	rep := Sentinel([]Record{a, b})
	if rep.Pass() {
		t.Fatal("cycle/energy drift passed")
	}
	names := map[string]bool{}
	for _, d := range rep.Drifts() {
		names[d.Name] = true
	}
	if !names["sim.cycles"] || !names["energy.issueq"] {
		t.Errorf("drift names %v, want sim.cycles and energy.issueq", names)
	}
}

func TestSentinelMissingCounterIsDrift(t *testing.T) {
	fp := "abcd000000000000:ef01000000000000"
	a := testRecord("aaaaaaaaaaaaaaaa", fp, time.Second)
	b := testRecord("bbbbbbbbbbbbbbbb", fp, time.Second)
	// Drop a modeled counter from b entirely.
	b.Metrics.Counters = append(b.Metrics.Counters[:0], b.Metrics.Counters[1:]...)
	rep := Sentinel([]Record{a, b})
	if rep.Pass() {
		t.Fatal("vanished modeled counter passed the sentinel")
	}
	d := rep.Drifts()[0]
	if d.Name != "commit.loads" || d.Run != "(absent)" {
		t.Errorf("missing counter misreported: %+v", d)
	}
}

// TestSentinelAcceptsRetiredFastForwardRecord: ledgers written while the
// fast-forward engine existed carry an "ffwd" flag and ffwd.* counters on
// engine-on runs. Such a line must still load, and must not drift against a
// fresh run of the same fingerprint that has no ffwd.* counters at all.
func TestSentinelAcceptsRetiredFastForwardRecord(t *testing.T) {
	const old = `{"v":1,"id":"0123456789abcdef","kind":"sim","start":"2026-08-09T12:00:00Z",` +
		`"kernel":"aps","iq":64,"reuse":true,"nblt":8,` +
		`"fingerprint":"abcd000000000000:ef01000000000000","ffwd":true,` +
		`"cycles":1000,"commits":2500,"ipc":2.5,"gated":0,` +
		`"metrics":{"counters":[{"name":"commit.loads","value":400},{"name":"ffwd.idle_skips","value":3},` +
		`{"name":"iq.dispatches","value":2600},{"name":"sim.commits","value":2500},` +
		`{"name":"sim.cycles","value":1000},{"name":"telemetry.events","value":7}],` +
		`"gauges":[{"name":"sim.ipc","value":2.5}]},` +
		`"energy":{"issueq":123.5,"total":900.25},` +
		`"host":{"goos":"linux","goarch":"amd64","cpus":8,"go":"go1.22","wall_ns":1000000000}}` + "\n"
	path := ledgerPath(t)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("loaded %d records, want 1", len(recs))
	}
	if v, ok := recs[0].Metrics.Counter("ffwd.idle_skips"); !ok || v != 3 {
		t.Fatalf("ffwd.idle_skips = %d, %v after load", v, ok)
	}
	fresh := testRecord("bbbbbbbbbbbbbbbb", recs[0].Fingerprint, time.Second)
	rep := Sentinel(append(recs, fresh))
	if !rep.Pass() {
		t.Fatalf("retired ffwd counter counted as drift: %+v", rep.Drifts())
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("%d fingerprint groups, want the two records grouped", len(rep.Groups))
	}
}

func TestSentinelGroupsAndSkips(t *testing.T) {
	a := testRecord("aaaaaaaaaaaaaaaa", "1111000000000000:2222000000000000", time.Second)
	b := testRecord("bbbbbbbbbbbbbbbb", "3333000000000000:2222000000000000", time.Second)
	c := testRecord("cccccccccccccccc", "1111000000000000:2222000000000000", time.Second)
	c.Err = "watchdog"
	rep := Sentinel([]Record{a, b, c})
	if !rep.Pass() {
		t.Fatalf("unexpected drifts: %+v", rep.Drifts())
	}
	// Both fingerprints are singletons once the errored run is skipped.
	if len(rep.Groups) != 0 || rep.Singles != 2 {
		t.Errorf("groups %d singles %d, want 0 groups and 2 singles", len(rep.Groups), rep.Singles)
	}
}

func TestSentinelWallOutlier(t *testing.T) {
	fp := "abcd000000000000:ef01000000000000"
	var recs []Record
	for i, wall := range []time.Duration{100 * time.Millisecond, 101 * time.Millisecond, 99 * time.Millisecond, 102 * time.Millisecond, 2 * time.Second} {
		r := testRecord(strings.Repeat(string(rune('a'+i)), 16), fp, wall)
		recs = append(recs, r)
	}
	rep := Sentinel(recs)
	if !rep.Pass() {
		t.Fatalf("wall-time variance failed the sentinel: %+v", rep.Drifts())
	}
	g := rep.Groups[0]
	if len(g.Outliers) != 1 || g.Outliers[0].WallNS != (2*time.Second).Nanoseconds() {
		t.Fatalf("outliers %+v, want exactly the 2s run", g.Outliers)
	}
	if g.Outliers[0].Z < 3.5 {
		t.Errorf("outlier z=%.1f, want > 3.5", g.Outliers[0].Z)
	}

	// Below four runs the test is statistically meaningless: no outliers.
	rep = Sentinel(recs[:3])
	if len(rep.Groups[0].Outliers) != 0 {
		t.Errorf("outliers reported for a 3-run group: %+v", rep.Groups[0].Outliers)
	}
}

func TestDiffTwoRuns(t *testing.T) {
	a := testRecord("aaaaaaaaaaaaaaaa", "1111000000000000:2222000000000000", time.Second)
	b := testRecord("bbbbbbbbbbbbbbbb", "3333000000000000:2222000000000000", time.Second)
	b.Metrics.Counters[1].Value = 2000 // iq.dispatches 2600 -> 2000
	b.Energy["issueq"] = 100.0

	d := Diff([]Record{a}, []Record{b})
	rows := map[string]DiffRow{}
	for _, r := range d.Rows {
		rows[r.Name] = r
	}
	iq := rows["iq.dispatches"]
	if iq.A != 2600 || iq.B != 2000 || !iq.Changed() || iq.Delta() != -600 {
		t.Errorf("iq.dispatches row wrong: %+v", iq)
	}
	if !rows["energy.issueq"].Changed() || rows["energy.total"].Changed() {
		t.Error("energy rows misclassified")
	}
	if rows["sim.cycles"].Changed() {
		t.Error("identical counter reported changed")
	}

	var buf bytes.Buffer
	if err := d.WriteText(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "iq.dispatches") || !strings.Contains(out, "-600") {
		t.Errorf("rendered diff missing the changed counter:\n%s", out)
	}
	if strings.Contains(out, "commit.loads") {
		t.Errorf("changed-only diff includes an identical counter:\n%s", out)
	}
	if !strings.Contains(out, "-23.08%") {
		t.Errorf("rendered diff missing the percent delta:\n%s", out)
	}
}

func TestDiffRunSetsUseMeans(t *testing.T) {
	mk := func(id string, dispatches uint64) Record {
		r := testRecord(id, "1111000000000000:2222000000000000", time.Second)
		r.Metrics.Counters[1].Value = dispatches
		return r
	}
	d := Diff(
		[]Record{mk("aaaaaaaaaaaaaaaa", 100), mk("bbbbbbbbbbbbbbbb", 200)},
		[]Record{mk("cccccccccccccccc", 400)},
	)
	for _, r := range d.Rows {
		if r.Name == "iq.dispatches" {
			if r.A != 150 || r.B != 400 {
				t.Errorf("set means wrong: %+v", r)
			}
			return
		}
	}
	t.Fatal("iq.dispatches row missing")
}

func TestBenchRecordValidate(t *testing.T) {
	good := &BenchRecord{
		V: BenchSchemaVersion, Kind: BenchSimcore,
		Throughput: &BenchThroughput{SimulatedCycles: 100, WallNS: 5, Wall: "5ns"},
		Sections:   []BenchSection{{Name: "figure5", Wall: "1ms", WallNS: 1e6}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid simcore record rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*BenchRecord)
	}{
		{"future version", func(b *BenchRecord) { b.V = BenchSchemaVersion + 1 }},
		{"unknown kind", func(b *BenchRecord) { b.Kind = "mystery" }},
		{"retired ffwd kind", func(b *BenchRecord) { b.Kind = "ffwd" }},
		{"simcore without throughput", func(b *BenchRecord) { b.Throughput = nil }},
		{"unnamed section", func(b *BenchRecord) { b.Sections[0].Name = "" }},
	}
	for _, tc := range cases {
		b := *good
		b.Sections = append([]BenchSection(nil), good.Sections...)
		tc.mut(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBenchRecordRoundTripAndDiff(t *testing.T) {
	dir := t.TempDir()
	a := &BenchRecord{
		V: BenchSchemaVersion, Kind: BenchSimcore,
		Throughput: &BenchThroughput{SimulatedCycles: 1000, WallNS: 100, NSPerCycle: 0.1},
		Sections:   []BenchSection{{Name: "figure5", WallNS: 60}},
	}
	path := filepath.Join(dir, "a.json")
	if err := WriteBenchRecord(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", got, a)
	}

	b := *a
	b.Throughput = &BenchThroughput{SimulatedCycles: 1000, WallNS: 120, NSPerCycle: 0.12}
	d, err := DiffBench(a, &b)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DiffRow{}
	for _, r := range d.Rows {
		byName[r.Name] = r
	}
	if row := byName["ns_per_cycle"]; !row.Changed() || row.B != 0.12 {
		t.Errorf("ns_per_cycle row wrong: %+v", row)
	}
	if _, err := DiffBench(a, &BenchRecord{V: 1, Kind: "mystery"}); err == nil {
		t.Error("cross-kind diff accepted")
	}

	if _, err := ParseBenchRecord([]byte(`{"v":1,"kind":`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestWriteHTMLReport(t *testing.T) {
	fp := "abcd000000000000:ef01000000000000"
	a := testRecord("aaaaaaaaaaaaaaaa", fp, 100*time.Millisecond)
	b := testRecord("bbbbbbbbbbbbbbbb", fp, 150*time.Millisecond)
	b.Metrics.Counters[1].Value++
	rep := Sentinel([]Record{a, b})
	d := Diff([]Record{a}, []Record{b})
	var buf bytes.Buffer
	if err := WriteHTML(&buf, "test report", []Record{a, b}, rep, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!doctype html>", "FAIL", "iq.dispatches", a.ID, "prefers-color-scheme: dark"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}
