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
	"runtime"
	"strings"
	"time"

	"chats"
	"chats/internal/experiments"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/invariant"
	"chats/internal/machine"
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
		cmSpec      = flag.String("cm", "", "contention manager: fixed (default) or adaptive[:window=N,spec=F,wait=N,cap=N,fallbackafter=N,hotline=N]")
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

	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	cfg := chats.DefaultConfig()
	cfg.Machine.Seed = *seed
	cfg.Machine.Cores = *cores
	cfg.Machine.WatchdogCycles = *wdCycles
	cfg.Machine.MaxAttempts = *maxAttempts
	if *faultSpec != "" {
		spec := *faultSpec
		if spec == "soak" {
			spec = faults.SoakSpec
		}
		plan, err := faults.Parse(spec)
		if err != nil {
			fatal(err)
		}
		cfg.Machine.Faults = &plan
	}
	if *fallbackFB != "" {
		fb, err := machine.ParseFallback(*fallbackFB)
		if err != nil {
			fatal(err)
		}
		cfg.Machine.Fallback = fb
	}
	if *cmSpec != "" {
		cm, err := htm.ParseCM(*cmSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Machine.CM = cm
	}
	if *backoffSpec != "" {
		bo, err := machine.ParseBackoff(*backoffSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Machine.Backoff = bo
	}

	if *dumpConfig {
		experiments.PrintTableI(os.Stdout, cfg.Machine)
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
		if err := runSweep(cfg, *sweepSys, *sweepBench, *size, *jobs, *retries, *vsb, *valInterval, *jsonOut, *invariants, store, *progress); err != nil {
			fatal(err)
		}
		return
	}

	k, err := chats.ParseSystem(*system)
	if err != nil {
		fatal(err)
	}
	cfg.System = k
	if *retries >= 0 || *vsb >= 0 || *valInterval >= 0 {
		t, err := chats.SystemTraits(k)
		if err != nil {
			fatal(err)
		}
		if *retries >= 0 {
			t.Retries = *retries
		}
		if *vsb >= 0 {
			t.VSBSize = *vsb
		}
		if *valInterval >= 0 {
			t.ValidationInterval = uint64(*valInterval)
		}
		cfg.Traits = &t
	}

	sz, err := workloads.ParseSize(*size)
	if err != nil {
		fatal(err)
	}
	w, err := workloads.New(*bench, sz)
	if err != nil {
		fatal(err)
	}

	// Assemble the tracer stack: the line tracer and the telemetry
	// collector can be attached together through a MultiTracer.
	var col *telemetry.Collector
	if *traceJSON != "" || *traceChrome != "" || *hotLines > 0 || *chainRep || *metrics {
		col = telemetry.New(cfg.Machine.Cores, telemetry.Options{Window: *window})
	}
	var tracers chats.MultiTracer
	if *trace {
		tracers = append(tracers, chats.WriterTracer(os.Stderr))
	}
	if col != nil {
		tracers = append(tracers, col)
	}
	var chk *invariant.Checker
	if *invariants {
		chk = invariant.New()
		tracers = append(tracers, chk)
	}

	var st chats.Stats
	cost := beginCost()
	switch len(tracers) {
	case 0:
		st, err = chats.Run(cfg, w)
	case 1:
		st, err = chats.RunWithTracer(cfg, w, tracers[0])
	default:
		st, err = chats.RunWithTracer(cfg, w, tracers)
	}
	wallNS, allocs := cost.finish()
	if err != nil {
		fatal(err)
	}
	if store != nil {
		rec := runstore.FromStats(st, string(cfg.System), cfg.Machine.Seed, experiments.TraitsKey(cfg.Traits), *size, wallNS, allocs)
		if col != nil {
			runstore.AttachTelemetry(&rec, col, 16)
		}
		store.Recorder(runstore.NowMeta(), "chatsim")(rec)
	}
	if chk != nil {
		if verr := chk.Err(); verr != nil {
			fatal(verr)
		}
		c := chk.Counts()
		fmt.Printf("invariants  ok (%d tx replayed, %d ops, %d edges, %d lines diffed)\n",
			c.TxReplays, c.TxOps, c.Edges, c.LinesDiffed)
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

// runCost measures host wall clock and heap allocations around one
// simulation, mirroring experiments.cellBenchRec. Mallocs is
// process-wide, so at -j > 1 the per-cell delta includes allocations of
// concurrently running cells; at -j 1 it is exact.
type runCost struct {
	start   time.Time
	mallocs uint64
}

func beginCost() runCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runCost{start: time.Now(), mallocs: ms.Mallocs}
}

func (c runCost) finish() (wallNS int64, allocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Since(c.start).Nanoseconds(), ms.Mallocs - c.mallocs
}

// runSweep fans a (systems × benches) grid out over -j goroutines. Each
// cell builds its own config and workload, so the printed statistics are
// bit-identical at any -j; only wall clock changes. Results print in
// grid order (system-major) regardless of completion order. With a
// store attached, every cell is persisted as one record.
func runSweep(base chats.Config, systems, benches, size string, jobs, retries, vsb, valInterval int, jsonOut, invariants bool, store *runstore.Store, progress bool) error {
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

	type cell struct {
		cfg   chats.Config
		bench string
	}
	var cells []cell
	for _, k := range kinds {
		cfg := base
		cfg.System = k
		cfg.Traits = nil
		if retries >= 0 || vsb >= 0 || valInterval >= 0 {
			t, err := chats.SystemTraits(k)
			if err != nil {
				return err
			}
			if retries >= 0 {
				t.Retries = retries
			}
			if vsb >= 0 {
				t.VSBSize = vsb
			}
			if valInterval >= 0 {
				t.ValidationInterval = uint64(valInterval)
			}
			cfg.Traits = &t
		}
		for _, b := range names {
			cells = append(cells, cell{cfg: cfg, bench: b})
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
		w, err := workloads.New(cells[i].bench, sz)
		if err != nil {
			return err
		}
		var st chats.Stats
		cost := beginCost()
		if invariants {
			// One fresh checker per cell: a Checker is per-run state.
			chk := invariant.New()
			st, err = chats.RunWithTracer(cells[i].cfg, w, chk)
			if err == nil {
				err = chk.Err()
			}
		} else {
			st, err = chats.Run(cells[i].cfg, w)
		}
		wallNS, allocs := cost.finish()
		if err != nil {
			return fmt.Errorf("%s on %s: %w", cells[i].cfg.System, cells[i].bench, err)
		}
		if record != nil {
			rec := runstore.FromStats(st, string(cells[i].cfg.System), cells[i].cfg.Machine.Seed,
				experiments.TraitsKey(cells[i].cfg.Traits), size, wallNS, allocs)
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
