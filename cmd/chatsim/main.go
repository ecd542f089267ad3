// Command chatsim runs one benchmark on one HTM system and prints the
// collected statistics.
//
// Usage:
//
//	chatsim -system chats -bench kmeans-h -size medium
//	chatsim -trace-chrome out.json -bench kmeans-h   # load in Perfetto
//	chatsim -hot-lines 8 -chain -metrics -bench cadd
//	chatsim -sweep -systems baseline,chats -benches cadd,llb-h -j 4
//	chatsim -repro 'rp1;cores=2;pool=4;pack=1;priv=0|[a0+1]|[s0+2]'  # differential oracle
//	chatsim -repro @internal/difftest/corpus/fallback-storm.txt -fallback stm
//	chatsim -dump-config     # Table I
//	chatsim -dump-systems    # Table II
//	chatsim -list            # available benchmarks and systems
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chats"
	"chats/internal/core"
	"chats/internal/experiments"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "chatsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, writes statistics and
// reports to stdout and traces and progress to stderr, and returns every
// failure as an error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chatsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system      = fs.String("system", "chats", "HTM system: "+strings.Join(core.KindNames(), ", "))
		bench       = fs.String("bench", "kmeans-h", "benchmark: "+strings.Join(workloads.Names(), ", "))
		size        = fs.String("size", "small", "workload size: tiny, small, medium")
		seed        = fs.Uint64("seed", 1, "simulation seed")
		cores       = fs.Int("cores", 16, "number of cores/threads")
		retries     = fs.Int("retries", -1, "override retry budget (-1 = Table II default)")
		vsb         = fs.Int("vsb", -1, "override VSB size (-1 = default)")
		valInterval = fs.Int("validation", -1, "override validation interval (-1 = default)")
		trace       = fs.Bool("trace", false, "print a per-event transactional trace to stderr")
		traceJSON   = fs.String("trace-json", "", "write the event stream as JSON Lines to this file")
		traceChrome = fs.String("trace-chrome", "", "write a Chrome trace_event file (open in Perfetto / chrome://tracing)")
		hotLines    = fs.Int("hot-lines", 0, "print the top-K contended cache lines (0 = off)")
		chainRep    = fs.Bool("chain", false, "print the chain-topology report")
		metrics     = fs.Bool("metrics", false, "print telemetry histograms and cycle-windowed series")
		window      = fs.Uint64("window", 10_000, "cycle window for the telemetry time series")
		jsonOut     = fs.Bool("json", false, "print statistics as JSON")
		invariants  = fs.Bool("invariants", false, "attach the runtime invariant checker (chains, coherence, serializability oracle)")
		wdCycles    = fs.Uint64("watchdog-cycles", 0, "arm the livelock watchdog: kill the run with a diagnostic dump after this many cycles without a commit or fallback (0 = off)")
		maxAttempts = fs.Int("max-attempts", 0, "per-transaction attempt budget before the starvation watchdog kills the run (0 = off)")
		repro       = fs.String("repro", "", "replay one rp1 spec (or @file) through the differential oracle and exit")
		doSweep     = fs.Bool("sweep", false, "run a (systems × benches) grid instead of a single cell")
		storeDir    = fs.String("store", "", "record the run (or every sweep cell) into the run database at this directory")
		progress    = fs.Bool("progress", false, "with -sweep: print a live done/total cell count to stderr")
		sweepSys    = fs.String("systems", "", "comma-separated systems for -sweep (default: all) and -repro (default: the five paper systems)")
		sweepBench  = fs.String("benches", "", "comma-separated benchmarks for -sweep (default: all)")
		jobs        = fs.Int("j", 0, "cells to run in parallel with -sweep (0 = GOMAXPROCS; results are identical at any -j)")
		dumpConfig  = fs.Bool("dump-config", false, "print Table I and exit")
		dumpSystems = fs.Bool("dump-systems", false, "print Table II and exit")
		list        = fs.Bool("list", false, "list benchmarks and systems and exit")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		knobs       = experiments.RegisterKnobs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	cfg := machine.DefaultConfig()
	cfg.Seed = *seed
	cfg.Cores = *cores
	cfg.WatchdogCycles = *wdCycles
	cfg.MaxAttempts = *maxAttempts
	if err := knobs.Apply(&cfg); err != nil {
		return err
	}
	ov := overrides{retries: *retries, vsb: *vsb, valInterval: *valInterval}

	if *dumpConfig || *dumpSystems {
		if *dumpConfig {
			experiments.PrintTableI(stdout, cfg)
		}
		if *dumpSystems {
			return experiments.PrintTableII(stdout)
		}
		return nil
	}
	if *list {
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(workloads.Names(), " "))
		fmt.Fprintln(stdout, "systems:   ", strings.Join(core.KindNames(), " "))
		return nil
	}

	var store *runstore.Store
	if *storeDir != "" {
		store, err = runstore.Open(*storeDir)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	if *repro != "" {
		return runRepro(stdout, cfg, *repro, *sweepSys)
	}

	sz, err := workloads.ParseSize(*size)
	if err != nil {
		return err
	}
	if *doSweep {
		p := experiments.Params{Size: sz, Machine: cfg, Workers: *jobs, Invariants: *invariants}
		if store != nil {
			p.Recorder = store.Recorder(runstore.NowMeta(), "sweep")
		}
		if *progress {
			p.Progress = sweep.Printer(stderr)
		}
		return runSweep(stdout, p, *sweepSys, *sweepBench, ov, *jsonOut)
	}

	k, err := chats.ParseSystem(*system)
	if err != nil {
		return err
	}
	traits, err := ov.traits(k)
	if err != nil {
		return err
	}
	c := experiments.Cell{System: k, Traits: traits, Bench: *bench, Size: sz, Machine: cfg}

	// Assemble the tracers: the line tracer, the telemetry collector and
	// the invariant checker observe the same run together.
	var col *telemetry.Collector
	if *traceJSON != "" || *traceChrome != "" || *hotLines > 0 || *chainRep || *metrics {
		col = telemetry.New(cfg.Cores, telemetry.Options{Window: *window})
	}
	if *trace {
		c.Tracers = append(c.Tracers, machine.WriterTracer{W: stderr})
	}
	if col != nil {
		c.Tracers = append(c.Tracers, col)
	}
	if *invariants {
		c.Checker = invariant.New()
	}

	st, rec, err := experiments.RunCell(c)
	if err != nil {
		return err
	}
	if store != nil {
		if col != nil {
			runstore.AttachTelemetry(&rec, col, 16)
		}
		store.Recorder(runstore.NowMeta(), "chatsim")(rec)
	}
	if c.Checker != nil {
		n := c.Checker.Counts()
		fmt.Fprintf(stdout, "invariants  ok (%d tx replayed, %d ops, %d edges, %d lines diffed)\n",
			n.TxReplays, n.TxOps, n.Edges, n.LinesDiffed)
	}

	if col != nil {
		if *traceJSON != "" {
			if err := writeFile(*traceJSON, col.WriteJSONL); err != nil {
				return err
			}
		}
		if *traceChrome != "" {
			if err := writeFile(*traceChrome, col.WriteChromeTrace); err != nil {
				return err
			}
		}
		if *hotLines > 0 {
			col.WriteHotLineReport(stdout, *hotLines)
		}
		if *chainRep {
			col.Chain().Fprint(stdout)
		}
		if *metrics {
			col.Reg.Fprint(stdout)
		}
	}
	if *jsonOut {
		return encodeJSON(stdout, st)
	}
	printStats(stdout, st)
	return nil
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

// runSweep runs a (systems × benches) grid through an experiments.Suite
// and prints one row per cell in grid order (system-major). Each cell
// builds its own machine and workload, so the statistics are
// bit-identical at any -j; only wall clock changes.
func runSweep(stdout io.Writer, p experiments.Params, systems, benches string, ov overrides, jsonOut bool) error {
	kinds, err := core.ParseList(systems)
	if err != nil {
		return err
	}
	if kinds == nil {
		kinds = core.Kinds()
	}
	names := workloads.Names()
	if benches != "" {
		names = strings.Split(benches, ",")
		for i, b := range names {
			names[i] = strings.TrimSpace(b)
		}
	}
	// Validate every name before any cell runs: a typo must fail the
	// whole sweep upfront, not cell N of a half-finished grid.
	if err := workloads.Check(names); err != nil {
		return err
	}
	traits := make(map[core.Kind]*htm.Traits, len(kinds))
	for _, k := range kinds {
		if traits[k], err = ov.traits(k); err != nil {
			return err
		}
	}
	results, err := experiments.NewSuite(p).Grid(kinds, traits, names)
	if err != nil {
		return err
	}
	if jsonOut {
		return encodeJSON(stdout, results)
	}
	fmt.Fprintf(stdout, "%-12s %-10s %12s %9s %9s %10s\n", "system", "bench", "cycles", "commits", "aborts", "abort-rate")
	for _, st := range results {
		fmt.Fprintf(stdout, "%-12s %-10s %12d %9d %9d %10.3f\n",
			st.System, st.Workload, st.Cycles, st.Commits, st.Aborts, st.AbortRate())
	}
	return nil
}

func printStats(w io.Writer, st chats.Stats) {
	fmt.Fprintf(w, "system      %s\n", st.System)
	fmt.Fprintf(w, "workload    %s\n", st.Workload)
	fmt.Fprintf(w, "cycles      %d\n", st.Cycles)
	fmt.Fprintf(w, "commits     %d\n", st.Commits)
	fmt.Fprintf(w, "aborts      %d (rate %.3f)\n", st.Aborts, st.AbortRate())
	for c := 1; c < htm.NumCauses; c++ {
		if st.ByCause[c] > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", htm.AbortCause(c).String(), st.ByCause[c])
		}
	}
	fmt.Fprintf(w, "fallbacks   %d   power-acqs %d\n", st.Fallbacks, st.PowerAcqs)
	fmt.Fprintf(w, "forwarding  sent %d  consumed %d  validations %d  validated %d\n",
		st.SpecRespsSent, st.SpecRespsConsumed, st.Validations, st.ValidationsOK)
	fmt.Fprintf(w, "network     %d messages, %d flits\n", st.Messages, st.Flits)
	if st.FaultsInjected > 0 {
		fmt.Fprintf(w, "faults      %d injected\n", st.FaultsInjected)
	}
	fmt.Fprintf(w, "L1          %d hits, %d misses\n", st.L1Hits, st.L1Misses)
	fmt.Fprintf(w, "fig6        conflicted %d/%d (commit/abort)  forwarders %d/%d  consumers %d/%d\n",
		st.ConflictedCommitted, st.ConflictedAborted,
		st.ForwarderCommitted, st.ForwarderAborted,
		st.ConsumerCommitted, st.ConsumerAborted)
}

// writeFile creates path and streams one export into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeJSON writes v to w as indented JSON.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
