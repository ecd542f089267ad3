// Command benchdiff compares two bench trajectories cell by cell: wall
// clock, heap allocations, and allocations per simulated cycle. Inputs
// are chats-bench/v1 or /v2 JSON files (written by `chats-experiments
// -bench-json`), or a baseline pulled straight from a run-store
// database by commit.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//	benchdiff -max-alloc-regress 10 BENCH_j1.json new.json   # CI gate
//	benchdiff -store runs/ -baseline abc123def456 new.json   # store baseline
//
// Because the simulator is deterministic, a SimCycles mismatch between
// the two sides for the same cell means the runs were not bit-identical
// — benchdiff reports it and exits nonzero regardless of flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"chats/internal/experiments"
	"chats/internal/runstore"
)

func main() {
	maxRegress := flag.Float64("max-alloc-regress", 0,
		"fail (exit 1) if any common cell's allocs grew by more than this percentage (0 = report only)")
	allocSlack := flag.Uint64("alloc-slack", 5000,
		"absolute alloc headroom per cell before -max-alloc-regress applies (absorbs runtime noise on tiny cells)")
	storeDir := flag.String("store", "",
		"run-store directory to read the baseline from (with -baseline, replaces OLD.json)")
	baseline := flag.String("baseline", "",
		"commit whose newest store records form the baseline (requires -store)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] OLD.json NEW.json\n")
		fmt.Fprintf(os.Stderr, "       benchdiff [flags] -store DIR -baseline COMMIT NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if (*storeDir == "") != (*baseline == "") {
		fatal(fmt.Errorf("-store and -baseline must be used together"))
	}

	var (
		oldRep *experiments.BenchReport
		err    error
	)
	wantArgs := 2
	if *storeDir != "" {
		wantArgs = 1
		oldRep, err = loadStoreBaseline(*storeDir, *baseline)
	}
	if err != nil {
		fatal(err)
	}
	if flag.NArg() != wantArgs {
		flag.Usage()
		os.Exit(2)
	}
	if oldRep == nil {
		if oldRep, err = load(flag.Arg(0)); err != nil {
			fatal(err)
		}
	}
	newRep, err := load(flag.Arg(flag.NArg() - 1))
	if err != nil {
		fatal(err)
	}

	code := diff(os.Stdout, oldRep, newRep, *maxRegress, *allocSlack)
	os.Exit(code)
}

func load(path string) (*experiments.BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep experiments.BenchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "chats-bench/v1" && rep.Schema != experiments.BenchSchema {
		return nil, fmt.Errorf("%s: unsupported schema %q (want chats-bench/v1 or %s)",
			path, rep.Schema, experiments.BenchSchema)
	}
	return &rep, nil
}

// loadStoreBaseline synthesizes the OLD side from the run database: the
// newest record per cell among the given commit's runs.
func loadStoreBaseline(dir, commit string) (*experiments.BenchReport, error) {
	s, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	recs := s.Runs(runstore.Query{Commit: commit})
	if len(recs) == 0 {
		known := s.Commits()
		return nil, fmt.Errorf("store %s has no records for commit %q (known commits: %v)", dir, commit, known)
	}
	latest := make(map[string]runstore.Record, len(recs))
	for _, r := range recs {
		latest[r.Cell()] = r // Runs is ID-ordered: later wins
	}
	rep := &experiments.BenchReport{
		Schema: experiments.BenchSchema,
		Commit: commit,
		Runs:   len(latest),
	}
	for cell, r := range latest {
		rep.Cells = append(rep.Cells, experiments.CellBench{
			Cell:        cell,
			SimCycles:   r.SimCycles,
			WallclockNS: r.WallclockNS,
			Allocs:      r.Allocs,
		})
	}
	sort.Slice(rep.Cells, func(i, j int) bool { return rep.Cells[i].Cell < rep.Cells[j].Cell })
	return rep, nil
}

// diff prints the per-cell comparison and returns the process exit code.
func diff(w *os.File, oldRep, newRep *experiments.BenchReport, maxRegress float64, slack uint64) int {
	oldCells := byName(oldRep.Cells)
	newCells := byName(newRep.Cells)

	var names []string
	for n := range oldCells {
		if _, ok := newCells[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-34s %11s %11s %7s %12s %12s %7s %9s\n",
		"cell", "old-ms", "new-ms", "speedup", "old-allocs", "new-allocs", "ratio", "allocs/kc")
	var (
		wallRatios, allocRatios []float64
		mismatched, regressed   []string
	)
	for _, n := range names {
		o, nw := oldCells[n], newCells[n]
		wallR := ratio(float64(o.WallclockNS), float64(nw.WallclockNS))
		allocR := ratio(float64(o.Allocs), float64(nw.Allocs))
		perKC := 0.0
		if nw.SimCycles > 0 {
			perKC = float64(nw.Allocs) / float64(nw.SimCycles) * 1000
		}
		note := ""
		if o.SimCycles != nw.SimCycles {
			note = "  !! simcycles differ"
			mismatched = append(mismatched, n)
		}
		if maxRegress > 0 && float64(nw.Allocs) > float64(o.Allocs)*(1+maxRegress/100)+float64(slack) {
			note += "  !! alloc regression"
			regressed = append(regressed, n)
		}
		fmt.Fprintf(w, "%-34s %11.1f %11.1f %6.2fx %12d %12d %6.2fx %9.2f%s\n",
			n, float64(o.WallclockNS)/1e6, float64(nw.WallclockNS)/1e6, wallR,
			o.Allocs, nw.Allocs, allocR, perKC, note)
		if wallR > 0 {
			wallRatios = append(wallRatios, wallR)
		}
		if allocR > 0 {
			allocRatios = append(allocRatios, allocR)
		}
	}
	fmt.Fprintf(w, "%-34s %11s %11s %6.2fx %12s %12s %6.2fx %9s\n",
		"geomean", "", "", geomean(wallRatios), "", "", geomean(allocRatios), "")
	fmt.Fprintf(w, "\ngeomean over %d common cells (old/new, >1 = new is better)\n", len(names))
	fmt.Fprintf(w, "total wall clock: %.1fs -> %.1fs (old -j %d, new -j %d)\n",
		float64(oldRep.TotalWallclockNS)/1e9, float64(newRep.TotalWallclockNS)/1e9,
		oldRep.Workers, newRep.Workers)

	reportMissing(w, "only in old", oldCells, newCells)
	reportMissing(w, "only in new", newCells, oldCells)

	code := 0
	if len(mismatched) > 0 {
		fmt.Fprintf(w, "\nFAIL: %d cell(s) changed simcycles — runs are not bit-identical: %v\n",
			len(mismatched), mismatched)
		code = 1
	}
	if len(regressed) > 0 {
		fmt.Fprintf(w, "\nFAIL: %d cell(s) exceed the +%.0f%% alloc budget: %v\n",
			len(regressed), maxRegress, regressed)
		code = 1
	}
	return code
}

func byName(cells []experiments.CellBench) map[string]experiments.CellBench {
	m := make(map[string]experiments.CellBench, len(cells))
	for _, c := range cells {
		m[c.Cell] = c
	}
	return m
}

// ratio is old/new so that >1 means the new run improved.
func ratio(old, new float64) float64 {
	if new == 0 {
		return 0
	}
	return old / new
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func reportMissing(w *os.File, label string, a, b map[string]experiments.CellBench) {
	var only []string
	for n := range a {
		if _, ok := b[n]; !ok {
			only = append(only, n)
		}
	}
	if len(only) > 0 {
		sort.Strings(only)
		fmt.Fprintf(w, "%s: %v\n", label, only)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
