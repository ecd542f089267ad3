package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chats"
	"chats/internal/experiments"
	"chats/internal/machine"
	"chats/internal/runstore"
	"chats/internal/telemetry"
	"chats/internal/workloads"
)

// newTestServer serves dir, which must already exist.
func newTestServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	s, err := newServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// openStore opens a writer on a fresh store directory.
func openStore(t *testing.T) *runstore.Store {
	t.Helper()
	w, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func status(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeEndToEnd is the documented loop: a writer records cells
// into a store while the server reads it. Cells recorded with a
// telemetry collector come back with their drill-downs, a record
// appended after startup shows on the next request, and a torn tail
// left by a writer mid-append is neither an error nor touched.
func TestServeEndToEnd(t *testing.T) {
	w := openStore(t)
	record := w.Recorder(runstore.Meta{Commit: "c1"}, "chatsim")
	for _, k := range []chats.SystemKind{chats.Baseline, chats.CHATS} {
		c := experiments.Cell{System: k, Bench: "cadd", Size: workloads.Tiny, Machine: machine.DefaultConfig()}
		col := telemetry.New(c.Machine.Cores, telemetry.Options{MaxEvents: 1})
		c.Tracers = []machine.Tracer{col}
		_, rec, err := experiments.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		runstore.AttachTelemetry(&rec, col, 16)
		record(rec)
	}
	ts := newTestServer(t, w.Dir())

	var summaries []runSummary
	get(t, ts.URL+"/api/runs", &summaries)
	if len(summaries) != 2 {
		t.Fatalf("/api/runs returned %d runs, want 2", len(summaries))
	}
	for _, r := range summaries {
		if r.Source != "chatsim" || r.SimCycles == 0 || r.Commits == 0 || !r.HasTelemetry {
			t.Fatalf("bad run summary %+v", r)
		}
	}

	var chatsOnly []runSummary
	get(t, ts.URL+"/api/runs?system=chats&workload=cadd", &chatsOnly)
	if len(chatsOnly) != 1 || chatsOnly[0].System != "chats" {
		t.Fatalf("system filter returned %+v", chatsOnly)
	}
	var none []runSummary
	get(t, ts.URL+"/api/runs?source=sweep", &none)
	if len(none) != 0 {
		t.Fatalf("source filter returned %+v", none)
	}

	// The drill-down carries the full telemetry payload.
	var rec runstore.Record
	get(t, fmt.Sprintf("%s/api/run?id=%d", ts.URL, summaries[0].ID), &rec)
	if len(rec.Hists) == 0 || len(rec.HotLines) == 0 || rec.Chain == nil {
		t.Fatalf("drill-down for run %d missing telemetry: %d hists, %d hot lines, chain %v",
			summaries[0].ID, len(rec.Hists), len(rec.HotLines), rec.Chain)
	}

	// A record appended after the server started shows on the next read.
	record(runstore.Record{System: "chats", Workload: "llb-h", Size: "tiny", SimCycles: 7})
	get(t, ts.URL+"/api/runs", &summaries)
	if len(summaries) != 3 || summaries[2].Workload != "llb-h" {
		t.Fatalf("after an append /api/runs = %+v, want the third record", summaries)
	}

	// Half a record, as a writer mid-append leaves it.
	seg := filepath.Join(w.Dir(), "seg-000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":3,"sys`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/api/runs", &summaries)
	if len(summaries) != 3 {
		t.Fatalf("with a torn tail /api/runs holds %d runs, want 3", len(summaries))
	}
	var trends []runstore.Trend
	get(t, ts.URL+"/api/trends", &trends)
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("serving changed the segment (err %v)", err)
	}
}

// TestServeConcurrentReads has several clients read while a writer
// appends: every answer holds a whole prefix of the records, and once
// the writer is done every client sees all of them.
func TestServeConcurrentReads(t *testing.T) {
	w := openStore(t)
	ts := newTestServer(t, w.Dir())
	record := w.Recorder(runstore.Meta{Commit: "c1"}, "sweep")
	const appends, readers = 20, 4
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < appends; j++ {
				resp, err := http.Get(ts.URL + "/api/runs")
				if err != nil {
					t.Error(err)
					return
				}
				var runs []runSummary
				err = json.NewDecoder(resp.Body).Decode(&runs)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for k, r := range runs {
					if r.ID != uint64(k) {
						t.Errorf("answer %d holds id %d at position %d", j, r.ID, k)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < appends; i++ {
		record(runstore.Record{System: "chats", Workload: "cadd", Seed: uint64(i)})
	}
	wg.Wait()
	var runs []runSummary
	get(t, ts.URL+"/api/runs", &runs)
	if len(runs) != appends {
		t.Fatalf("after the writer finished /api/runs holds %d runs, want %d", len(runs), appends)
	}
}

// TestServeTrendsAcrossCommits exercises the cross-commit trend view:
// cells recorded under two commit labels make every shared cell a
// 2-point series.
func TestServeTrendsAcrossCommits(t *testing.T) {
	w := openStore(t)
	for i, commit := range []string{"c1", "c2"} {
		record := w.Recorder(runstore.Meta{Commit: commit}, "sweep")
		for _, system := range []string{"baseline", "chats"} {
			for _, workload := range []string{"cadd", "llb-h"} {
				record(runstore.Record{System: system, Workload: workload, Size: "tiny", SimCycles: uint64(1000 + i)})
			}
		}
	}
	ts := newTestServer(t, w.Dir())

	var commits []string
	get(t, ts.URL+"/api/commits", &commits)
	if len(commits) != 2 {
		t.Fatalf("commits = %v, want the two recorded labels", commits)
	}

	var trends []runstore.Trend
	get(t, ts.URL+"/api/trends", &trends)
	if len(trends) == 0 {
		t.Fatal("/api/trends returned no series")
	}
	twoPoint := 0
	for _, tr := range trends {
		if len(tr.Points) == 2 {
			twoPoint++
		}
	}
	if twoPoint == 0 {
		t.Fatalf("no trend series spans both commits: %+v", trends)
	}

	// Workload filter narrows the series set.
	var cadd []runstore.Trend
	get(t, ts.URL+"/api/trends?workload=cadd", &cadd)
	for _, tr := range cadd {
		if tr.Workload != "cadd" {
			t.Fatalf("workload filter leaked %+v", tr)
		}
	}
	if len(cadd) == 0 || len(cadd) >= len(trends) {
		t.Fatalf("workload filter returned %d series (total %d)", len(cadd), len(trends))
	}
}

// TestServeValidation pins the rejections: bad query values are 400,
// unknown runs and paths are 404 (the endpoints that once launched
// sweeps included), and a missing store fails at startup naming it.
func TestServeValidation(t *testing.T) {
	w := openStore(t)
	w.Recorder(runstore.Meta{Commit: "c1"}, "sweep")(runstore.Record{System: "chats", Workload: "cadd"})
	ts := newTestServer(t, w.Dir())
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/api/runs?limit=-1", http.StatusBadRequest},
		{"GET", "/api/runs?limit=many", http.StatusBadRequest},
		{"GET", "/api/run?id=x", http.StatusBadRequest},
		{"GET", "/api/run", http.StatusBadRequest},
		{"GET", "/api/run?id=42", http.StatusNotFound},
		{"GET", "/api/run?id=0", http.StatusOK},
		{"POST", "/api/sweep", http.StatusNotFound},
		{"GET", "/api/jobs", http.StatusNotFound},
		{"GET", "/api/events", http.StatusNotFound},
	} {
		if got := status(t, c.method, ts.URL+c.path); got != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, got, c.want)
		}
	}

	missing := filepath.Join(t.TempDir(), "no-such-store")
	if _, err := newServer(missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("serving a missing store: err %v, want one naming %s", err, missing)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("serving a missing store created it (stat err %v)", err)
	}
}

// TestServeDashboard pins that the embedded page ships, fetches only
// the read endpoints, and no longer drives sweeps or an event stream.
func TestServeDashboard(t *testing.T) {
	ts := newTestServer(t, openStore(t).Dir())
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{"/api/meta", "/api/trends", "/api/commits", "/api/runs?", "/api/run?id=",
		"chats run database", "fallback &amp; contention", "fallback concurrency"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard.html does not mention %q", want)
		}
	}
	for _, gone := range []string{"/api/events", "/api/sweep", "/api/jobs", "EventSource"} {
		if strings.Contains(page, gone) {
			t.Errorf("dashboard.html still mentions %q", gone)
		}
	}
	if got := status(t, "GET", ts.URL+"/nope"); got != http.StatusNotFound {
		t.Fatalf("GET /nope: status %d, want 404", got)
	}
}
