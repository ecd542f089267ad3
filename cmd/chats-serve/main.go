// Command chats-serve is the live monitoring dashboard for the run
// database: a long-running HTTP server that executes sweep jobs through
// the shared worker pool, records every cell into the store, and serves
// a single-page dashboard with live per-cell progress (SSE), per-run
// telemetry drill-downs and cross-commit trend views.
//
// Usage:
//
//	chats-serve -store runs.db
//	chats-serve -store runs.db -addr :9090 -j 4
//
// Endpoints: / (dashboard), /api/runs, /api/run?id=N, /api/trends,
// /api/commits, /api/meta, /api/jobs, POST /api/sweep, /api/events (SSE).
// SIGINT/SIGTERM shut the server down cleanly: in-flight jobs finish,
// SSE streams close, the store is sealed, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"chats/internal/runstore"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8343", "HTTP listen address")
		storeDir = flag.String("store", "", "run database directory (required; created if missing)")
		jobs     = flag.Int("j", runtime.NumCPU(), "sweep cells to run in parallel per job")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(errors.New("-store <dir> is required"))
	}

	store, err := runstore.Open(*storeDir, runstore.Options{})
	if err != nil {
		fatal(err)
	}

	s := newServer(store, *jobs)
	srv := &http.Server{Addr: *addr, Handler: s}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "chats-serve: %d runs in %s, listening on http://%s\n",
			store.Len(), store.Dir(), *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Orderly shutdown: close the event broker first so SSE handlers
	// return and stop pinning connections, then drain HTTP, then let
	// running jobs finish (their appends must land before the store
	// seals).
	fmt.Fprintln(os.Stderr, "chats-serve: shutting down")
	s.broker.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "chats-serve:", err)
	}
	s.jobs.Wait()
	if err := store.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chats-serve:", err)
	os.Exit(1)
}
