package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"chats"
	"chats/internal/runstore"
	"chats/internal/workloads"
)

//go:embed dashboard.html
var dashboardHTML []byte

// server answers every request from the last read of one store
// directory, re-reading it first when a writer has changed it since.
type server struct {
	mux *http.ServeMux

	mu    sync.Mutex
	store *runstore.Store // the last read; never nil
}

// newServer reads dir once, so a missing or corrupt store fails at
// startup rather than on the first request.
func newServer(dir string) (*server, error) {
	store, err := runstore.Read(dir)
	if err != nil {
		return nil, err
	}
	s := &server{store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/api/runs", s.reading(handleRuns))
	s.mux.HandleFunc("/api/run", s.reading(handleRun))
	s.mux.HandleFunc("/api/trends", s.reading(handleTrends))
	s.mux.HandleFunc("/api/commits", s.reading(handleCommits))
	s.mux.HandleFunc("/api/meta", s.reading(handleMeta))
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// current returns the store as of its newest state. The lock makes
// concurrent requests after one append share a single re-read.
func (s *server) current() (*runstore.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store.Changed() {
		store, err := runstore.Read(s.store.Dir())
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	return s.store, nil
}

// reading adapts a handler over one store read to an http.HandlerFunc.
func (s *server) reading(h func(http.ResponseWriter, *http.Request, *runstore.Store)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		store, err := s.current()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		h(w, r, store)
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		httpError(w, http.StatusNotFound, "no page %q", r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

// runSummary is the list-view projection of a Record: identity and cost
// plus headline counters, with the heavy telemetry payloads replaced by
// a has_telemetry flag — the drill-down fetches the full record by ID.
type runSummary struct {
	ID           uint64  `json:"id"`
	Commit       string  `json:"commit"`
	TimestampUTC string  `json:"timestamp_utc"`
	Seed         uint64  `json:"seed"`
	System       string  `json:"system"`
	Workload     string  `json:"workload"`
	Config       string  `json:"config,omitempty"`
	Size         string  `json:"size,omitempty"`
	Source       string  `json:"source,omitempty"`
	SimCycles    uint64  `json:"simcycles"`
	WallclockNS  int64   `json:"wallclock_ns"`
	Allocs       uint64  `json:"allocs"`
	Commits      uint64  `json:"commits"`
	Aborts       uint64  `json:"aborts"`
	AbortRate    float64 `json:"abort_rate"`
	HasTelemetry bool    `json:"has_telemetry"`
}

func summarize(r runstore.Record) runSummary {
	var commits, aborts uint64
	if r.Counters != nil {
		commits, aborts = r.Counters["commits"], r.Counters["aborts"]
	}
	return runSummary{
		ID:           r.ID,
		Commit:       r.Commit,
		TimestampUTC: r.TimestampUTC,
		Seed:         r.Seed,
		System:       r.System,
		Workload:     r.Workload,
		Config:       r.Config,
		Size:         r.Size,
		Source:       r.Source,
		SimCycles:    r.SimCycles,
		WallclockNS:  r.WallclockNS,
		Allocs:       r.Allocs,
		Commits:      commits,
		Aborts:       aborts,
		AbortRate:    r.AbortRate(),
		HasTelemetry: len(r.Hists) > 0 || len(r.HotLines) > 0 || r.Chain != nil,
	}
}

func handleRuns(w http.ResponseWriter, r *http.Request, store *runstore.Store) {
	q := runstore.Query{
		Commit:   r.URL.Query().Get("commit"),
		System:   r.URL.Query().Get("system"),
		Workload: r.URL.Query().Get("workload"),
		Source:   r.URL.Query().Get("source"),
	}
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", lim)
			return
		}
		q.Limit = n
	}
	recs := store.Runs(q)
	out := make([]runSummary, len(recs))
	for i, rec := range recs {
		out[i] = summarize(rec)
	}
	writeJSON(w, out)
}

func handleRun(w http.ResponseWriter, r *http.Request, store *runstore.Store) {
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad id %q", r.URL.Query().Get("id"))
		return
	}
	rec, ok := store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	writeJSON(w, rec)
}

func handleTrends(w http.ResponseWriter, r *http.Request, store *runstore.Store) {
	q := runstore.Query{
		System:   r.URL.Query().Get("system"),
		Workload: r.URL.Query().Get("workload"),
		Source:   r.URL.Query().Get("source"),
	}
	writeJSON(w, store.Trends(q))
}

func handleCommits(w http.ResponseWriter, r *http.Request, store *runstore.Store) {
	writeJSON(w, store.Commits())
}

// handleMeta serves the dashboard's vocabulary: the canonical system
// order (also the fixed chart-color order), workload names and sizes.
func handleMeta(w http.ResponseWriter, r *http.Request, store *runstore.Store) {
	systems := make([]string, 0, len(chats.Systems()))
	for _, k := range chats.Systems() {
		systems = append(systems, string(k))
	}
	writeJSON(w, map[string]any{
		"systems":   systems,
		"workloads": workloads.Names(),
		"sizes":     []string{"tiny", "small", "medium"},
		"store":     store.Dir(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but note it server-side.
		fmt.Printf("chats-serve: encoding response: %v\n", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
