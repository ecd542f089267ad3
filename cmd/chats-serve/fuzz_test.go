package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"chats/internal/runstore"
)

// FuzzServeQuery sends an arbitrary path and raw query string to the
// server over a small fixed store. No request may panic a handler,
// every answer is 200, 400 or 404, and every path but / answers JSON.
func FuzzServeQuery(f *testing.F) {
	w, err := runstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for i, commit := range []string{"c1", "c2"} {
		record := w.Recorder(runstore.Meta{Commit: commit}, "sweep")
		record(runstore.Record{System: "baseline", Workload: "cadd", Size: "tiny", SimCycles: uint64(100 + i),
			Counters: map[string]uint64{"commits": 9, "aborts": 1}})
		record(runstore.Record{System: "chats", Workload: "llb-h", Size: "tiny", SimCycles: uint64(200 + i),
			HotLines: []runstore.HotLine{{Line: "0x80", Conflicts: 3}}, Chain: &runstore.Chain{Edges: 2}})
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	s, err := newServer(w.Dir())
	if err != nil {
		f.Fatal(err)
	}
	// net/http recovers a handler panic and logs it, so the log is where
	// a panic shows.
	var logged syncBuffer
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Start()
	f.Cleanup(ts.Close)
	client := ts.Client()

	f.Fuzz(func(t *testing.T, path, query string) {
		if len(path)+len(query) > 4096 {
			return
		}
		logged.Reset()
		u := url.URL{Scheme: "http", Host: ts.Listener.Addr().String(), Path: path, RawQuery: escapeQuery(query)}
		resp, err := client.Get(u.String())
		if msg := logged.String(); strings.Contains(msg, "panic") {
			t.Fatalf("GET %s panicked:\n%s", u.String(), msg)
		}
		if err != nil {
			t.Fatalf("GET %s: %v", u.String(), err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading the body: %v", u.String(), err)
		}
		switch resp.StatusCode {
		case 200, 400, 404:
		default:
			t.Fatalf("GET %s: status %d", u.String(), resp.StatusCode)
		}
		if resp.Request.URL.Path != "/" && !json.Valid(body) {
			t.Fatalf("GET %s: status %d with a body that is not JSON: %q", u.String(), resp.StatusCode, body)
		}
	})
}

// escapeQuery percent-escapes the bytes a request line cannot carry raw
// (controls, space, '#' and non-ASCII) and leaves the rest, malformed
// escapes included, for the server to parse.
func escapeQuery(q string) string {
	var b strings.Builder
	for i := 0; i < len(q); i++ {
		if c := q[i]; c <= ' ' || c == '#' || c >= 0x7f {
			fmt.Fprintf(&b, "%%%02X", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// syncBuffer is a bytes.Buffer the server's goroutines can log into.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}
