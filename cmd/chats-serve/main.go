// Command chats-serve is the read-only viewer of the run database: an
// HTTP server that reads a store directory written by `chatsim -store`
// or `chats-experiments -store` and serves a single-page dashboard with
// cross-commit trend views and per-run telemetry drill-downs. It never
// writes to the store. Each request re-reads the directory when a
// writer has appended since the last read, so a page reload shows new
// records.
//
// Usage:
//
//	chats-serve -store runs.db
//	chats-serve -store runs.db -addr :9090
//
// Endpoints: / (dashboard), /api/runs, /api/run?id=N, /api/trends,
// /api/commits, /api/meta. SIGINT/SIGTERM shut the server down cleanly
// and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8343", "HTTP listen address")
		storeDir = flag.String("store", "", "run database directory to read (required)")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(errors.New("-store <dir> is required"))
	}

	s, err := newServer(*storeDir)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Addr: *addr, Handler: s}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "chats-serve: %d runs in %s, listening on http://%s\n",
		s.store.Len(), *storeDir, *addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "chats-serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chats-serve:", err)
	os.Exit(1)
}
