// Command chats-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	chats-experiments                 # everything at medium size
//	chats-experiments -fig 4 -size small
//	chats-experiments -fig 1,4,7 -v
//	chats-experiments -fig 4 -j 4 -bench-json bench.json
//	chats-experiments -faults-soak -size tiny -j 4   # fault soak + invariants
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"chats"
	"chats/internal/experiments"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/runstore"
	"chats/internal/stats"
	"chats/internal/telemetry"
	"chats/internal/workloads"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated figure list (1,4,5,6,7,8,9,10,11) or 'all'")
		size      = flag.String("size", "medium", "workload size: tiny, small, medium")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		seeds     = flag.Int("seeds", 1, "seeds to average each cell over")
		verbose   = flag.Bool("v", false, "print a line per simulation")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		profile   = flag.String("profile", "", "instead of figures, profile one benchmark under telemetry (hot lines, chain topology, metrics)")
		profSys   = flag.String("profile-system", "chats", "system to profile with -profile")
		jobs      = flag.Int("j", 0, "simulation cells to run in parallel (0 = GOMAXPROCS; results are identical at any -j)")
		benchJSON = flag.String("bench-json", "", "write a machine-readable bench trajectory {cell, simcycles, wallclock_ns, allocs} to this file")
		storeDir  = flag.String("store", "", "record every simulation into the run database at this directory")
		progress  = flag.Bool("progress", false, "print a live done/total cell count to stderr while each grid runs")
		benchScl  = flag.Bool("bench-scale", false, "instead of figures, run the scale grid (CHATS on kmeans/cadd at 64 and 256 cores) serially and write it with -bench-json — diff it against BENCH_scale.json with benchdiff")
		soak      = flag.Bool("faults-soak", false, "instead of figures, run every system × micro bench under the fault plan with invariants and the watchdog on")
		faultSpec = flag.String("faults", "", "fault spec for -faults-soak (default: the canonical all-kinds soak plan)")
		fbMatrix  = flag.Bool("fallback-matrix", false, "instead of figures, sweep fallback path × system × micro bench under a lockburst plan (graceful-degradation check)")
		fallback  = flag.String("fallback", "", "fallback path for every simulation: lock (default), stm[:locks=N], elide[:budget=N,refill=N]")
		cmSpec    = flag.String("cm", "", "contention manager: fixed (default) or adaptive[:window=N,spec=F,wait=N,cap=N,fallbackafter=N,hotline=N]")
		backoff   = flag.String("backoff", "", "post-abort backoff variant: exp (default), linear, jitter, each with optional :cap=N")
		fuzzN     = flag.Int("fuzz-smoke", 0, "instead of figures, differentially fuzz N seeded random programs across all systems (0 = off)")
		fuzzSeed  = flag.Uint64("fuzz-seed", 1, "first generator seed for -fuzz-smoke")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	cellJobs := *jobs
	if cellJobs <= 0 {
		cellJobs = runtime.GOMAXPROCS(0)
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	sz, err := workloads.ParseSize(*size)
	if err != nil {
		fatal(err)
	}

	// The -fallback/-cm/-backoff knobs apply to every simulation of the
	// chosen mode (figures, soak, fuzz-smoke). The fallback matrix sweeps
	// its own path axis, so it only honors -cm and -backoff.
	applyKnobs := func(cfg *machine.Config) {
		var err error
		if *fallback != "" {
			if cfg.Fallback, err = machine.ParseFallback(*fallback); err != nil {
				fatal(err)
			}
		}
		if *cmSpec != "" {
			if cfg.CM, err = htm.ParseCM(*cmSpec); err != nil {
				fatal(err)
			}
		}
		if *backoff != "" {
			if cfg.Backoff, err = machine.ParseBackoff(*backoff); err != nil {
				fatal(err)
			}
		}
	}

	// Open the run database before mode dispatch: the figures, soak,
	// fallback-matrix and fuzz-smoke modes all record through the same
	// seam, tagged with the mode as the record source.
	meta := runstore.NowMeta()
	var recorder func(runstore.Record)
	if *storeDir != "" {
		store, err := runstore.Open(*storeDir, runstore.Options{})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		source := "experiments"
		switch {
		case *fuzzN > 0:
			source = "fuzz"
		case *soak:
			source = "soak"
		case *fbMatrix:
			source = "fallback-matrix"
		}
		recorder = store.Recorder(meta, source)
	}

	if *fuzzN > 0 {
		p := experiments.Params{Size: sz, Machine: machine.DefaultConfig(), Workers: cellJobs, Recorder: recorder}
		p.Machine.Seed = *seed
		applyKnobs(&p.Machine)
		rep := experiments.FuzzSmoke(p, *fuzzSeed, *fuzzN)
		experiments.WriteFuzzReport(os.Stdout, rep)
		if !rep.Ok() {
			os.Exit(1)
		}
		return
	}
	if *profile != "" {
		if err := runProfile(*profile, *profSys, sz, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *benchScl {
		if *benchJSON == "" {
			fatal(fmt.Errorf("-bench-scale needs -bench-json FILE"))
		}
		if err := runScaleBench(sz, *seed, *benchJSON); err != nil {
			fatal(err)
		}
		return
	}
	if *soak || *fbMatrix {
		p := experiments.Params{
			Size:     sz,
			Machine:  machine.DefaultConfig(),
			Workers:  cellJobs,
			Recorder: recorder,
		}
		p.Machine.Seed = *seed
		applyKnobs(&p.Machine)
		if *soak {
			p.WatchdogCycles = 10_000_000
		}
		if *verbose {
			p.Verbose = os.Stderr
		}
		if *faultSpec != "" {
			plan, err := faults.Parse(*faultSpec)
			if err != nil {
				fatal(err)
			}
			p.Faults = &plan
		}
		if *soak {
			err = runSoak(p)
		} else {
			err = runFallbackMatrix(p)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	p := experiments.Params{Size: sz, Machine: machine.DefaultConfig(), Seeds: *seeds, Workers: cellJobs, Recorder: recorder}
	p.Machine.Seed = *seed
	applyKnobs(&p.Machine)
	if *verbose {
		p.Verbose = os.Stderr
	}
	if *progress {
		p.Progress = stderrProgress
	}
	suite := experiments.NewSuite(p)
	start := time.Now()

	validFigs := []string{"1", "4", "5", "6", "7", "8", "9", "10", "11"}
	want := map[string]bool{}
	if *figs == "all" {
		for _, f := range validFigs {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			known := false
			for _, v := range validFigs {
				if f == v {
					known = true
					break
				}
			}
			if !known {
				fatal(fmt.Errorf("unknown figure %q (known: %s, or 'all')", f, strings.Join(validFigs, ",")))
			}
			want[f] = true
		}
	}

	experiments.PrintTableI(os.Stdout, p.Machine)
	if err := experiments.PrintTableII(os.Stdout); err != nil {
		fatal(err)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	writeCSV := func(t *stats.Table) {
		if *csvDir == "" {
			return
		}
		name := slug(t.Title) + ".csv"
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fatal(err)
		}
		if err := t.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	show := func(t *stats.Table, err error) {
		if err != nil {
			fatal(err)
		}
		t.Fprint(os.Stdout)
		writeCSV(t)
	}
	showAll := func(ts []*stats.Table, err error) {
		if err != nil {
			fatal(err)
		}
		for _, t := range ts {
			t.Fprint(os.Stdout)
			writeCSV(t)
		}
	}

	// Order matters for cache reuse: Fig4 populates the main matrix used
	// by Figs 1, 5, 6 and 7.
	if want["4"] {
		show(suite.Fig4())
	}
	if want["1"] {
		show(suite.Fig1())
	}
	if want["5"] {
		showAll(suite.Fig5())
	}
	if want["6"] {
		showAll(suite.Fig6())
	}
	if want["7"] {
		show(suite.Fig7())
	}
	if want["8"] {
		show(suite.Fig8())
	}
	if want["9"] {
		showAll(suite.Fig9(nil))
	}
	if want["10"] {
		showAll(suite.Fig10())
	}
	if want["11"] {
		show(suite.Fig11())
	}
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			fatal(err)
		}
		if err := suite.WriteBenchJSON(f, cellJobs, time.Since(start), meta); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "total simulations: %d\n", suite.Runs)
}

// runScaleBench runs the scale grid one cell at a time (the wall-clock
// and alloc numbers are the point, so nothing else may run
// concurrently) and writes the trajectory for benchdiff.
func runScaleBench(sz workloads.Size, seed uint64, out string) error {
	p := experiments.Params{Size: sz, Machine: machine.DefaultConfig(), Workers: 1}
	p.Machine.Seed = seed
	start := time.Now()
	cells, runs, err := experiments.RunScaleBench(p)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchCells(f, cells, 1, sz.String(), runs, time.Since(start), runstore.NowMeta()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scale bench: %d cells -> %s\n", runs, out)
	return f.Close()
}

// runSoak runs the fault soak: every system × micro bench under the
// fault plan with the invariant checker and livelock watchdog armed.
// Partial results are reported — a failing cell never hides the rest.
func runSoak(p experiments.Params) error {
	rep := experiments.FaultSoak(p, nil)
	rep.Write(os.Stdout)
	if n := len(rep.Failures()); n > 0 {
		return fmt.Errorf("%d soak cells failed", n)
	}
	return nil
}

// runFallbackMatrix sweeps fallback path × system × micro bench under a
// lockburst plan (-faults overrides it) and prints the per-cell fallback
// concurrency — the graceful-degradation check from the command line.
func runFallbackMatrix(p experiments.Params) error {
	rep := experiments.FallbackMatrix(p, nil)
	rep.Write(os.Stdout)
	if n := len(rep.Failures()); n > 0 {
		return fmt.Errorf("%d fallback-matrix cells failed", n)
	}
	return nil
}

// runProfile executes one (system, benchmark) cell with the telemetry
// collector attached and prints the attribution reports — the drill-down
// companion to the aggregate figure tables.
func runProfile(bench, system string, sz workloads.Size, seed uint64) error {
	k, err := chats.ParseSystem(system)
	if err != nil {
		return err
	}
	w, err := workloads.New(bench, sz)
	if err != nil {
		return err
	}
	cfg := chats.DefaultConfig()
	cfg.System = k
	cfg.Machine.Seed = seed
	col := telemetry.New(cfg.Machine.Cores, telemetry.Options{})
	st, err := chats.RunWithTracer(cfg, w, col)
	if err != nil {
		return err
	}
	fmt.Printf("profile: %s on %s (%s size, seed %d): %d cycles, %d commits, %d aborts\n\n",
		st.System, st.Workload, sz, seed, st.Cycles, st.Commits, st.Aborts)
	col.WriteHotLineReport(os.Stdout, 10)
	col.Chain().Fprint(os.Stdout)
	col.Reg.Fprint(os.Stdout)
	return nil
}

// stderrProgress redraws a done/total cell count in place, closing the
// line when the grid completes (the sweep pool serializes calls).
func stderrProgress(done, total int) {
	fmt.Fprintf(os.Stderr, "\rcells: %d/%d", done, total)
	if done == total {
		fmt.Fprintln(os.Stderr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chats-experiments:", err)
	os.Exit(1)
}

// slug converts a table title into a safe file name.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == ':', r == '/', r == '.':
			if n := b.Len(); n > 0 && b.String()[n-1] != '-' {
				b.WriteByte('-')
			}
		}
	}
	return strings.Trim(b.String(), "-")
}
