// Command chatsim runs one benchmark on one HTM system and prints the
// collected statistics.
//
// Usage:
//
//	chatsim -system chats -bench kmeans-h -size medium
//	chatsim -trace-chrome out.json -bench kmeans-h   # load in Perfetto
//	chatsim -hot-lines 8 -chain -metrics -bench cadd
//	chatsim -sweep -systems baseline,chats -benches cadd,llb-h -j 4
//	chatsim -fuzz 50 -size tiny -minimize            # differential fuzzing
//	chatsim -repro 'rp1;cores=2;pool=4;pack=1;priv=0|[a0+1]|[s0+2]'
//	chatsim -dump-config     # Table I
//	chatsim -dump-systems    # Table II
//	chatsim -list            # available benchmarks and systems
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chats"
	"chats/internal/experiments"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/invariant"
	"chats/internal/machine"
	"chats/internal/profiling"
	"chats/internal/runstore"
	"chats/internal/sweep"
	"chats/internal/telemetry"
	"chats/internal/workloads"
)

func main() {
	var (
		system      = flag.String("system", "chats", "HTM system: "+strings.Join(systemNames(), ", "))
		bench       = flag.String("bench", "kmeans-h", "benchmark: "+strings.Join(workloads.Names(), ", "))
		size        = flag.String("size", "small", "workload size: tiny, small, medium")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		cores       = flag.Int("cores", 16, "number of cores/threads")
		retries     = flag.Int("retries", -1, "override retry budget (-1 = Table II default)")
		vsb         = flag.Int("vsb", -1, "override VSB size (-1 = default)")
		valInterval = flag.Int("validation", -1, "override validation interval (-1 = default)")
		trace       = flag.Bool("trace", false, "print a per-event transactional trace to stderr")
		traceJSON   = flag.String("trace-json", "", "write the event stream as JSON Lines to this file")
		traceChrome = flag.String("trace-chrome", "", "write a Chrome trace_event file (open in Perfetto / chrome://tracing)")
		hotLines    = flag.Int("hot-lines", 0, "print the top-K contended cache lines (0 = off)")
		chainRep    = flag.Bool("chain", false, "print the chain-topology report")
		metrics     = flag.Bool("metrics", false, "print telemetry histograms and cycle-windowed series")
		window      = flag.Uint64("window", 10_000, "cycle window for the telemetry time series")
		jsonOut     = flag.Bool("json", false, "print statistics as JSON")
		faultSpec   = flag.String("faults", "", "fault-injection spec, e.g. 'spurious:p=0.01;jitter:p=0.1,max=8' ('soak' = the canonical all-kinds plan)")
		fallbackFB  = flag.String("fallback", "", "fallback path: lock (default), stm[:locks=N], elide[:budget=N,refill=N]")
		hotLine     = flag.Int("hotline", 0, "NACK transactional probes for a line once its recent conflict aborts reach N (0 = off)")
		backoffSpec = flag.String("backoff", "", "post-abort backoff variant: exp (default), linear, jitter, each with optional :cap=N")
		invariants  = flag.Bool("invariants", false, "attach the runtime invariant checker (chains, coherence, serializability oracle)")
		wdCycles    = flag.Uint64("watchdog-cycles", 0, "arm the livelock watchdog: kill the run with a diagnostic dump after this many cycles without a commit or fallback (0 = off)")
		maxAttempts = flag.Int("max-attempts", 0, "per-transaction attempt budget before the starvation watchdog kills the run (0 = off)")
		fuzzN       = flag.Int("fuzz", 0, "differential-fuzz N seeded random programs across systems (0 = off)")
		fuzzSeed    = flag.Uint64("fuzz-seed", 1, "first generator seed for -fuzz")
		fuzzBudget  = flag.Duration("fuzz-budget", 0, "wall-clock budget for -fuzz (0 = none; budgeted runs are not seed-reproducible)")
		minimize    = flag.Bool("minimize", false, "shrink each -fuzz failure to a minimal reproducer")
		reproOut    = flag.String("repro-out", "", "write -fuzz failures (specs + minimized reproducers) as JSON to this file")
		fuzzBreak   = flag.Bool("fuzz-break", false, "oracle self-test: break CHATS validation on purpose; the fuzz campaign must catch it")
		repro       = flag.String("repro", "", "replay one rp1 spec (or @file) through the differential oracle and exit")
		doSweep     = flag.Bool("sweep", false, "run a (systems × benches) grid instead of a single cell")
		storeDir    = flag.String("store", "", "record the run (or every sweep cell) into the run database at this directory")
		progress    = flag.Bool("progress", false, "with -sweep: print a live done/total cell count to stderr")
		sweepSys    = flag.String("systems", "", "comma-separated systems for -sweep (default: all)")
		sweepBench  = flag.String("benches", "", "comma-separated benchmarks for -sweep (default: all)")
		jobs        = flag.Int("j", 0, "cells to run in parallel with -sweep (0 = GOMAXPROCS; results are identical at any -j)")
		dumpConfig  = flag.Bool("dump-config", false, "print Table I and exit")
		dumpSystems = flag.Bool("dump-systems", false, "print Table II and exit")
		list        = flag.Bool("list", false, "list benchmarks and systems and exit")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	cfg := machine.DefaultConfig()
	cfg.Seed = *seed
	cfg.Cores = *cores
	cfg.WatchdogCycles = *wdCycles
	cfg.MaxAttempts = *maxAttempts
	if *faultSpec != "" {
		plan, err := faults.ParseFlag(*faultSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = &plan
	}
	if *fallbackFB != "" {
		fb, err := machine.ParseFallback(*fallbackFB)
		if err != nil {
			fatal(err)
		}
		cfg.Fallback = fb
	}
	cfg.HotLine = *hotLine
	if *backoffSpec != "" {
		bo, err := machine.ParseBackoff(*backoffSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Backoff = bo
	}
	ov := overrides{retries: *retries, vsb: *vsb, valInterval: *valInterval}

	if *dumpConfig {
		experiments.PrintTableI(os.Stdout, cfg)
		return
	}
	if *dumpSystems {
		if err := experiments.PrintTableII(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		fmt.Println("benchmarks:", strings.Join(workloads.Names(), " "))
		fmt.Println("systems:   ", strings.Join(systemNames(), " "))
		return
	}

	var store *runstore.Store
	if *storeDir != "" {
		var err error
		store, err = runstore.Open(*storeDir, runstore.Options{})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
	}

	if *fuzzN > 0 {
		var record func(runstore.Record)
		if store != nil {
			record = store.Recorder(runstore.NowMeta(), "fuzz")
		}
		if err := runFuzz(cfg, *fuzzN, *fuzzSeed, *size, *sweepSys, *jobs,
			*fuzzBudget, *minimize, *reproOut, *fuzzBreak, *jsonOut, record); err != nil {
			fatal(err)
		}
		return
	}
	if *repro != "" {
		if err := runRepro(cfg, *repro, *sweepSys); err != nil {
			fatal(err)
		}
		return
	}

	if *doSweep {
		if err := runSweep(cfg, *sweepSys, *sweepBench, *size, *jobs, ov, *jsonOut, *invariants, store, *progress); err != nil {
			fatal(err)
		}
		return
	}

	k, err := chats.ParseSystem(*system)
	if err != nil {
		fatal(err)
	}
	traits, err := ov.traits(k)
	if err != nil {
		fatal(err)
	}
	sz, err := workloads.ParseSize(*size)
	if err != nil {
		fatal(err)
	}
	c := experiments.Cell{System: k, Traits: traits, Bench: *bench, Size: sz, Machine: cfg}

	// Assemble the tracers: the line tracer, the telemetry collector and
	// the invariant checker observe the same run together.
	var col *telemetry.Collector
	if *traceJSON != "" || *traceChrome != "" || *hotLines > 0 || *chainRep || *metrics {
		col = telemetry.New(cfg.Cores, telemetry.Options{Window: *window})
	}
	if *trace {
		c.Tracers = append(c.Tracers, machine.WriterTracer{W: os.Stderr})
	}
	if col != nil {
		c.Tracers = append(c.Tracers, col)
	}
	if *invariants {
		c.Checker = invariant.New()
	}

	st, rec, err := experiments.RunCell(c)
	if err != nil {
		fatal(err)
	}
	if store != nil {
		if col != nil {
			runstore.AttachTelemetry(&rec, col, 16)
		}
		store.Recorder(runstore.NowMeta(), "chatsim")(rec)
	}
	if c.Checker != nil {
		n := c.Checker.Counts()
		fmt.Printf("invariants  ok (%d tx replayed, %d ops, %d edges, %d lines diffed)\n",
			n.TxReplays, n.TxOps, n.Edges, n.LinesDiffed)
	}

	if col != nil {
		if *traceJSON != "" {
			writeFile(*traceJSON, col.WriteJSONL)
		}
		if *traceChrome != "" {
			writeFile(*traceChrome, col.WriteChromeTrace)
		}
		if *hotLines > 0 {
			col.WriteHotLineReport(os.Stdout, *hotLines)
		}
		if *chainRep {
			col.Chain().Fprint(os.Stdout)
		}
		if *metrics {
			col.Reg.Fprint(os.Stdout)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fatal(err)
		}
		return
	}
	printStats(st)
}

// overrides are the -retries/-vsb/-validation flags (-1 = Table II
// default).
type overrides struct{ retries, vsb, valInterval int }

// traits returns k's Table II traits with the overrides applied, or nil
// when none is set.
func (o overrides) traits(k chats.SystemKind) (*htm.Traits, error) {
	if o.retries < 0 && o.vsb < 0 && o.valInterval < 0 {
		return nil, nil
	}
	t, err := chats.SystemTraits(k)
	if err != nil {
		return nil, err
	}
	if o.retries >= 0 {
		t.Retries = o.retries
	}
	if o.vsb >= 0 {
		t.VSBSize = o.vsb
	}
	if o.valInterval >= 0 {
		t.ValidationInterval = uint64(o.valInterval)
	}
	return &t, nil
}

// runSweep fans a (systems × benches) grid out over -j goroutines. Each
// cell builds its own machine and workload, so the printed statistics
// are bit-identical at any -j; only wall clock changes. Results print in
// grid order (system-major) regardless of completion order. With a
// store attached, every cell is persisted as one record.
func runSweep(base machine.Config, systems, benches, size string, jobs int, ov overrides, jsonOut, invariants bool, store *runstore.Store, progress bool) error {
	var kinds []chats.SystemKind
	if systems == "" {
		kinds = chats.Systems()
	} else {
		for _, s := range strings.Split(systems, ",") {
			k, err := chats.ParseSystem(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			kinds = append(kinds, k)
		}
	}
	var names []string
	if benches == "" {
		names = workloads.Names()
	} else {
		// Validate every name before any cell runs: a typo must fail the
		// whole sweep upfront, not cell N of a half-finished grid.
		for _, b := range strings.Split(benches, ",") {
			b = strings.TrimSpace(b)
			if !knownBench(b) {
				return fmt.Errorf("unknown benchmark %q (known: %v)", b, workloads.Names())
			}
			names = append(names, b)
		}
	}
	sz, err := workloads.ParseSize(size)
	if err != nil {
		return err
	}

	var cells []experiments.Cell
	for _, k := range kinds {
		traits, err := ov.traits(k)
		if err != nil {
			return err
		}
		for _, b := range names {
			cells = append(cells, experiments.Cell{System: k, Traits: traits, Bench: b, Size: sz, Machine: base})
		}
	}

	var record func(runstore.Record)
	if store != nil {
		record = store.Recorder(runstore.NowMeta(), "sweep")
	}
	var prog sweep.Progress
	if progress {
		prog = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcells: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	results := make([]chats.Stats, len(cells))
	err = sweep.Map(jobs, len(cells), prog, func(i int) error {
		c := cells[i]
		if invariants {
			// One fresh checker per cell: a Checker is per-run state.
			c.Checker = invariant.New()
		}
		st, rec, err := experiments.RunCell(c)
		if err != nil {
			return err
		}
		if record != nil {
			record(rec)
		}
		results[i] = st
		return nil
	})
	if err != nil {
		return err
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	fmt.Printf("%-12s %-10s %12s %9s %9s %10s\n", "system", "bench", "cycles", "commits", "aborts", "abort-rate")
	for _, st := range results {
		fmt.Printf("%-12s %-10s %12d %9d %9d %10.3f\n",
			st.System, st.Workload, st.Cycles, st.Commits, st.Aborts, st.AbortRate())
	}
	return nil
}

func knownBench(name string) bool {
	for _, b := range workloads.Names() {
		if b == name {
			return true
		}
	}
	return false
}

func systemNames() []string {
	var ns []string
	for _, k := range chats.Systems() {
		ns = append(ns, string(k))
	}
	return ns
}

func printStats(st chats.Stats) {
	fmt.Printf("system      %s\n", st.System)
	fmt.Printf("workload    %s\n", st.Workload)
	fmt.Printf("cycles      %d\n", st.Cycles)
	fmt.Printf("commits     %d\n", st.Commits)
	fmt.Printf("aborts      %d (rate %.3f)\n", st.Aborts, st.AbortRate())
	for c := 1; c < htm.NumCauses; c++ {
		if st.ByCause[c] > 0 {
			fmt.Printf("  %-10s %d\n", htm.AbortCause(c).String(), st.ByCause[c])
		}
	}
	fmt.Printf("fallbacks   %d   power-acqs %d\n", st.Fallbacks, st.PowerAcqs)
	fmt.Printf("forwarding  sent %d  consumed %d  validations %d  validated %d\n",
		st.SpecRespsSent, st.SpecRespsConsumed, st.Validations, st.ValidationsOK)
	fmt.Printf("network     %d messages, %d flits\n", st.Messages, st.Flits)
	if st.FaultsInjected > 0 {
		fmt.Printf("faults      %d injected\n", st.FaultsInjected)
	}
	fmt.Printf("L1          %d hits, %d misses\n", st.L1Hits, st.L1Misses)
	fmt.Printf("fig6        conflicted %d/%d (commit/abort)  forwarders %d/%d  consumers %d/%d\n",
		st.ConflictedCommitted, st.ConflictedAborted,
		st.ForwarderCommitted, st.ForwarderAborted,
		st.ConsumerCommitted, st.ConsumerAborted)
}

// writeFile creates path and streams one telemetry export into it.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chatsim:", err)
	os.Exit(1)
}
