package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chats/internal/runstore"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	store, err := runstore.Open(t.TempDir(), runstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(store, 2)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.jobs.Wait()
		store.Close()
	})
	return s, ts
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

// TestServeEndToEnd is the demo path the dashboard promises: POST a tiny
// sweep, watch its live progress and per-run events arrive over SSE,
// then read the recorded cells back through /api/runs and the
// drill-down through /api/run.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	// Subscribe to SSE before launching so no event can be missed.
	resp, err := http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	body := `{"systems":["baseline","chats"],"workloads":["cadd"],"size":"tiny","telemetry":true}`
	post, err := http.Post(ts.URL+"/api/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/sweep: status %d", post.StatusCode)
	}
	var j job
	if err := json.NewDecoder(post.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.Total != 2 || j.State != "running" {
		t.Fatalf("job = %+v, want total 2 running", j)
	}

	// Drain the stream until the job-done event; along the way we must
	// see hello, at least one progress tick and both run events.
	var sawHello, sawProgress bool
	runs := 0
	deadline := time.Now().Add(30 * time.Second)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var event string
	for !time.Now().After(deadline) && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "hello":
				sawHello = true
			case "progress":
				sawProgress = true
			case "run":
				runs++
			case "job":
				var ev job
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("job event %q: %v", data, err)
				}
				if ev.State == "failed" {
					t.Fatalf("job failed: %s", ev.Error)
				}
				if ev.State == "done" {
					goto done
				}
			}
		}
	}
	t.Fatal("SSE stream ended before the job-done event")
done:
	if !sawHello || !sawProgress || runs != 2 {
		t.Fatalf("SSE saw hello=%v progress=%v runs=%d, want true/true/2", sawHello, sawProgress, runs)
	}

	var summaries []runSummary
	get(t, ts.URL+"/api/runs", &summaries)
	if len(summaries) != 2 {
		t.Fatalf("/api/runs returned %d runs, want 2", len(summaries))
	}
	for _, r := range summaries {
		if r.Source != "serve" || r.SimCycles == 0 || r.Commits == 0 {
			t.Fatalf("bad run summary %+v", r)
		}
		if !r.HasTelemetry {
			t.Fatalf("run %d: telemetry sweep produced no drill-down payload", r.ID)
		}
	}

	// System filter.
	var chatsOnly []runSummary
	get(t, ts.URL+"/api/runs?system=chats", &chatsOnly)
	if len(chatsOnly) != 1 || chatsOnly[0].System != "chats" {
		t.Fatalf("system filter returned %+v", chatsOnly)
	}

	// Drill-down carries the full telemetry payload.
	var rec runstore.Record
	get(t, fmt.Sprintf("%s/api/run?id=%d", ts.URL, summaries[0].ID), &rec)
	if len(rec.Hists) == 0 || rec.Chain == nil {
		t.Fatalf("drill-down for run %d missing telemetry: %d hists, chain %v",
			summaries[0].ID, len(rec.Hists), rec.Chain)
	}

	var jobs []job
	get(t, ts.URL+"/api/jobs", &jobs)
	if len(jobs) != 1 || jobs[0].State != "done" || jobs[0].Done != 2 {
		t.Fatalf("/api/jobs = %+v", jobs)
	}
}

// TestServeTrendsAcrossCommits exercises the cross-commit trend view:
// cells recorded under two commit labels make every shared cell a
// 2-point series.
func TestServeTrendsAcrossCommits(t *testing.T) {
	s, ts := newTestServer(t)
	for i, commit := range []string{"c1", "c2"} {
		record := s.store.Recorder(runstore.Meta{Commit: commit}, "sweep")
		for _, system := range []string{"baseline", "chats"} {
			for _, workload := range []string{"cadd", "llb-h"} {
				record(runstore.Record{System: system, Workload: workload, Size: "tiny", SimCycles: uint64(1000 + i)})
			}
		}
	}

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

// TestServeValidation pins the upfront-rejection contract: a bad sweep
// request must fail the POST with 400, not cell N of a running grid.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"systems":["warp-drive"]}`,
		`{"workloads":["nope"]}`,
		`{"size":"galactic"}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	var jobs []job
	get(t, ts.URL+"/api/jobs", &jobs)
	if len(jobs) != 0 {
		t.Fatalf("rejected sweeps must not create jobs: %+v", jobs)
	}

	resp, err := http.Get(ts.URL + "/api/run?id=42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/run?id=42: status %d, want 404", resp.StatusCode)
	}
}

// TestServeDashboard pins that the embedded page ships and references
// the API the JS drives.
func TestServeDashboard(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"/api/events", "/api/sweep", "/api/trends", "/api/runs", "chats run database",
		"fallback &amp; contention", "fallback concurrency"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("dashboard.html does not mention %q", want)
		}
	}
	if resp, err := http.Get(ts.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /nope: status %d, want 404", resp.StatusCode)
		}
	}
}
