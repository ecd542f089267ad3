// Command chats-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	chats-experiments                 # everything at medium size
//	chats-experiments -fig 4 -size small
//	chats-experiments -fig 1,4,7 -v
//	chats-experiments -fig 4 -j 4
//	chats-experiments -faults-soak -size tiny -j 4   # fault soak + invariants
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"chats/internal/experiments"
	"chats/internal/machine"
	"chats/internal/profiling"
	"chats/internal/runstore"
	"chats/internal/stats"
	"chats/internal/sweep"
	"chats/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "chats-experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, writes tables and reports to
// stdout and diagnostics to stderr, and returns every failure as an
// error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chats-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs     = fs.String("fig", "all", "comma-separated figure list (1,4,5,6,7,8,9,10,11) or 'all'")
		size     = fs.String("size", "medium", "workload size: tiny, small, medium")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		seeds    = fs.Int("seeds", 1, "seeds to average each cell over")
		verbose  = fs.Bool("v", false, "print a line per simulation")
		csvDir   = fs.String("csv", "", "also write each table as CSV into this directory")
		jobs     = fs.Int("j", 0, "simulation cells to run in parallel (0 = GOMAXPROCS; results are identical at any -j)")
		storeDir = fs.String("store", "", "record every simulation into the run database at this directory")
		progress = fs.Bool("progress", false, "print a live done/total cell count to stderr while each grid runs")
		soak     = fs.Bool("faults-soak", false, "instead of figures, run every system × micro bench under the fault plan with invariants and the watchdog on")
		fbMatrix = fs.Bool("fallback-matrix", false, "instead of figures, sweep fallback path × system × micro bench under a lockburst plan (graceful-degradation check)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		knobs    = experiments.RegisterKnobs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	sz, err := workloads.ParseSize(*size)
	if err != nil {
		return err
	}

	// The knobs apply to every simulation of the figures and the soak.
	// The fallback matrix sweeps its own path axis, so it honors all but
	// -fallback; the soak defaults -faults to the canonical plan.
	mcfg := machine.DefaultConfig()
	mcfg.Seed = *seed
	if err := knobs.Apply(&mcfg); err != nil {
		return err
	}

	// Open the run database before mode dispatch: the figures, soak and
	// fallback-matrix modes all record through the same seam, tagged
	// with the mode as the record source.
	var recorder func(runstore.Record)
	if *storeDir != "" {
		store, err := runstore.Open(*storeDir)
		if err != nil {
			return err
		}
		defer store.Close()
		source := "experiments"
		switch {
		case *soak:
			source = "soak"
		case *fbMatrix:
			source = "fallback-matrix"
		}
		recorder = store.Recorder(runstore.NowMeta(), source)
	}

	p := experiments.Params{Size: sz, Machine: mcfg, Workers: *jobs, Recorder: recorder}
	if *verbose {
		p.Verbose = stderr
	}
	if *soak || *fbMatrix {
		if *soak {
			p.Machine.WatchdogCycles = 10_000_000
			return runSoak(p, stdout)
		}
		return runFallbackMatrix(p, stdout)
	}
	p.Seeds = *seeds
	if *progress {
		p.Progress = sweep.Printer(stderr)
	}
	suite := experiments.NewSuite(p)

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
				return fmt.Errorf("unknown figure %q (known: %s, or 'all')", f, strings.Join(validFigs, ","))
			}
			want[f] = true
		}
	}

	experiments.PrintTableI(stdout, p.Machine)
	if err := experiments.PrintTableII(stdout); err != nil {
		return err
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	show := func(ts ...*stats.Table) error {
		for _, t := range ts {
			t.Fprint(stdout)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, slug(t.Title)+".csv"), t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	one := func(t *stats.Table, err error) ([]*stats.Table, error) { return []*stats.Table{t}, err }

	// Order matters for cache reuse: Fig4 populates the main matrix used
	// by Figs 1, 5, 6 and 7.
	for _, fig := range []struct {
		n    string
		make func() ([]*stats.Table, error)
	}{
		{"4", func() ([]*stats.Table, error) { return one(suite.Fig4()) }},
		{"1", func() ([]*stats.Table, error) { return one(suite.Fig1()) }},
		{"5", suite.Fig5},
		{"6", suite.Fig6},
		{"7", func() ([]*stats.Table, error) { return one(suite.Fig7()) }},
		{"8", func() ([]*stats.Table, error) { return one(suite.Fig8()) }},
		{"9", func() ([]*stats.Table, error) { return suite.Fig9(nil) }},
		{"10", suite.Fig10},
		{"11", func() ([]*stats.Table, error) { return one(suite.Fig11()) }},
	} {
		if !want[fig.n] {
			continue
		}
		ts, err := fig.make()
		if err != nil {
			return err
		}
		if err := show(ts...); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "total simulations: %d\n", suite.Runs)
	return nil
}

// runSoak runs the fault soak: every system × micro bench under the
// fault plan with the invariant checker and livelock watchdog armed.
// Partial results are reported — a failing cell never hides the rest.
func runSoak(p experiments.Params, stdout io.Writer) error {
	rep := experiments.FaultSoak(p, nil)
	rep.Write(stdout)
	if n := len(rep.Failures()); n > 0 {
		return fmt.Errorf("%d soak cells failed", n)
	}
	return nil
}

// runFallbackMatrix sweeps fallback path × system × micro bench under a
// lockburst plan (-faults overrides it) and prints the per-cell fallback
// concurrency — the graceful-degradation check from the command line.
func runFallbackMatrix(p experiments.Params, stdout io.Writer) error {
	rep := experiments.FallbackMatrix(p, nil)
	rep.Write(stdout)
	if n := len(rep.Failures()); n > 0 {
		return fmt.Errorf("%d fallback-matrix cells failed", n)
	}
	return nil
}

// writeCSV writes one table as CSV to path.
func writeCSV(path string, t *stats.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
