package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reuseiq/internal/cell"
	"reuseiq/internal/runstore"
)

func ledgerFixture() []runstore.Record {
	return []runstore.Record{
		{
			V: runstore.SchemaVersion, ID: "aaaa1111bbbb2222", Kind: runstore.KindSim,
			Start: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC),
			Spec:  cell.Spec{Kernel: "aps", IQSize: 64, Reuse: true}, Fingerprint: "0011223344556677:8899aabbccddeeff",
			Cycles: 1000, Commits: 1700, IPC: 1.7,
			Metrics: runstore.Metrics{Counters: []runstore.Counter{{Name: "commit.loads", Value: 42}}},
			Energy:  map[string]float64{"total": 9.5},
			Host:    runstore.Host{WallNS: 5_000_000},
		},
		{
			V: runstore.SchemaVersion, ID: "cccc3333dddd4444", Kind: runstore.KindCell,
			Spec:        cell.Spec{Kernel: "adi", IQSize: 128},
			Fingerprint: "ffeeddccbbaa9988:8899aabbccddeeff",
			Cycles:      2000, Commits: 1500, IPC: 0.75,
		},
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
	}
	return resp
}

// TestRunsEndpointsNoLedger pins the unattached behavior: both endpoints
// answer 404 with a hint, not an empty listing a dashboard would mistake for
// "no runs yet".
func TestRunsEndpointsNoLedger(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	for _, path := range []string{"/runs", "/runs/aaaa1111bbbb2222"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with no ledger = %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "-ledger") {
			t.Errorf("%s 404 body does not mention -ledger: %s", path, body)
		}
	}
}

// runsListing is the /runs wire shape the dashboard consumes; the test
// decodes into it so a field rename breaks loudly here, not in a browser.
type runsListing struct {
	Total int `json:"total"`
	Runs  []struct {
		ID          string  `json:"id"`
		Kind        string  `json:"kind"`
		Kernel      string  `json:"kernel"`
		IQ          int     `json:"iq"`
		Reuse       bool    `json:"reuse"`
		Fingerprint string  `json:"fingerprint"`
		Cycles      uint64  `json:"cycles"`
		IPC         float64 `json:"ipc"`
		WallNS      int64   `json:"wall_ns"`
	} `json:"runs"`
}

func TestRunsListingAndFilters(t *testing.T) {
	srv := NewServer()
	recs := ledgerFixture()
	srv.SetRunSource(func() []runstore.Record { return recs })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var all runsListing
	if resp := getJSON(t, ts, "/runs", &all); resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs = %d", resp.StatusCode)
	}
	if all.Total != 2 || len(all.Runs) != 2 {
		t.Fatalf("total = %d, runs = %d, want 2/2", all.Total, len(all.Runs))
	}
	r0 := all.Runs[0]
	if r0.ID != "aaaa1111bbbb2222" || r0.Kernel != "aps" || r0.IQ != 64 || !r0.Reuse ||
		r0.Cycles != 1000 || r0.IPC != 1.7 || r0.WallNS != 5_000_000 {
		t.Errorf("summary fields wrong: %+v", r0)
	}

	var filtered runsListing
	getJSON(t, ts, "/runs?kernel=adi", &filtered)
	if filtered.Total != 1 || filtered.Runs[0].Kind != runstore.KindCell {
		t.Errorf("kernel filter: %+v", filtered)
	}
	getJSON(t, ts, "/runs?kind=sim", &filtered)
	if filtered.Total != 1 || filtered.Runs[0].ID != "aaaa1111bbbb2222" {
		t.Errorf("kind filter: %+v", filtered)
	}
	// A bare config-half fingerprint matches on configuration alone.
	getJSON(t, ts, "/runs?fingerprint=ffeeddccbbaa9988", &filtered)
	if filtered.Total != 1 || filtered.Runs[0].Kernel != "adi" {
		t.Errorf("fingerprint filter: %+v", filtered)
	}
	getJSON(t, ts, "/runs?last=1", &filtered)
	if filtered.Total != 1 || filtered.Runs[0].ID != "cccc3333dddd4444" {
		t.Errorf("last filter: %+v", filtered)
	}

	if resp := getJSON(t, ts, "/runs?last=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/runs?last=x = %d, want 400", resp.StatusCode)
	}
}

func TestRunByIDFullRecord(t *testing.T) {
	srv := NewServer()
	recs := ledgerFixture()
	srv.SetRunSource(func() []runstore.Record { return recs })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The full record carries the metrics payload the summary elides.
	var rec runstore.Record
	if resp := getJSON(t, ts, "/runs/aaaa1111bbbb2222", &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs/{id} = %d", resp.StatusCode)
	}
	if len(rec.Metrics.Counters) != 1 || rec.Metrics.Counters[0].Name != "commit.loads" {
		t.Errorf("full record lost its metrics: %+v", rec.Metrics)
	}
	if rec.Energy["total"] != 9.5 {
		t.Errorf("full record lost its energy map: %+v", rec.Energy)
	}

	// Unique prefix resolves; a short or unknown id is 404.
	var byPrefix runstore.Record
	if resp := getJSON(t, ts, "/runs/aaaa", &byPrefix); resp.StatusCode != http.StatusOK || byPrefix.ID != rec.ID {
		t.Errorf("prefix lookup: status %d, id %q", resp.StatusCode, byPrefix.ID)
	}
	for _, path := range []string{"/runs/aa", "/runs/eeee5555"} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDashboardServes pins the page's load-bearing structure: it references
// the /events stream and /runs endpoint it charts from, and ships the
// progress elements the SSE handler updates.
func TestDashboardServes(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dashboard = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"EventSource(\"/events\")", "/runs?last=25", "addEventListener(\"progress\"",
		"id=\"bar\"", "id=\"done\"", "id=\"eta\"", "prefers-color-scheme: dark",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/dashboard missing %q", want)
		}
	}
}
