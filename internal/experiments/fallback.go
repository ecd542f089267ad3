package experiments

import (
	"fmt"
	"io"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/machine"
	"chats/internal/sweep"
	"chats/internal/workloads"
)

// FallbackBurstSpec is the default fault plan of the fallback matrix: a
// lockburst-only soak that stretches every global-lock critical section,
// the failure mode the alternative fallback paths exist to survive.
const FallbackBurstSpec = "lockburst:p=0.5,cycles=2000"

// FallbackMatrixPaths are the three fallback paths the matrix sweeps.
// The STM path gets a wide lock table so false version-lock sharing
// never masks the concurrency it is supposed to demonstrate; elide gets
// a small budget so its extensions actually run out under a burst.
func FallbackMatrixPaths() []string {
	return []string{"lock", "stm:locks=256", "elide:budget=2"}
}

// fallbackMatrixSystems are the matrix's conflict-resolution series:
// CHATS and the requester-wins baseline.
func fallbackMatrixSystems() []core.Kind {
	return []core.Kind{core.KindCHATS, core.KindBaseline}
}

// fallbackRetries is the forced per-transaction retry budget of every
// matrix cell: contended blocks must reach the fallback path quickly or
// the matrix would mostly measure hardware commits.
const fallbackRetries = 1

// FallbackCell is one (fallback path, system, bench) cell.
type FallbackCell struct {
	Fallback string
	System   core.Kind
	Bench    string
	Stats    machine.RunStats
	Err      error
}

// Concurrency is the cell's average fallback concurrency: the integral
// of cores inside a fallback body over the run, divided by its length.
// The global lock admits at most one body at a time (<= 1 by
// construction); the STM path overlapping non-conflicting bodies pushes
// it past 1.
func (c *FallbackCell) Concurrency() float64 {
	if c.Stats.Cycles == 0 {
		return 0
	}
	return float64(c.Stats.FallbackBodyCycles) / float64(c.Stats.Cycles)
}

// FallbackReport is the full matrix outcome.
type FallbackReport struct {
	Plan  faults.Plan
	Cells []FallbackCell
}

// Failures returns the cells that errored, in grid order.
func (r *FallbackReport) Failures() []FallbackCell {
	var out []FallbackCell
	for _, c := range r.Cells {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// Cell returns the matrix cell for (fallback, system, bench), nil when
// absent.
func (r *FallbackReport) Cell(fb string, k core.Kind, bench string) *FallbackCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Fallback == fb && c.System == k && c.Bench == bench {
			return c
		}
	}
	return nil
}

// Write renders the matrix, one line per cell, with the fallback
// concurrency as the headline column.
func (r *FallbackReport) Write(w io.Writer) {
	fmt.Fprintf(w, "fallback matrix: plan %q, retries forced to %d\n", r.Plan.String(), fallbackRetries)
	fmt.Fprintf(w, "  %-16s %-10s %-8s %12s %9s %10s %12s %8s\n",
		"fallback", "system", "bench", "cycles", "commits", "fallbacks", "stm-commits", "fb-conc")
	for _, c := range r.Cells {
		if c.Err != nil {
			fmt.Fprintf(w, "  FAIL %-11s %-10s %-8s %v\n", c.Fallback, c.System, c.Bench, c.Err)
			continue
		}
		fmt.Fprintf(w, "  %-16s %-10s %-8s %12d %9d %10d %12d %8.2f\n",
			c.Fallback, c.System, c.Bench, c.Stats.Cycles, c.Stats.Commits,
			c.Stats.Fallbacks, c.Stats.FallbackSTMCommits, c.Concurrency())
	}
	if n := len(r.Failures()); n > 0 {
		fmt.Fprintf(w, "fallback matrix: %d of %d cells FAILED\n", n, len(r.Cells))
		return
	}
	fmt.Fprintf(w, "fallback matrix: all %d cells clean\n", len(r.Cells))
}

// FallbackMatrix sweeps (fallback path × system × bench) under a
// lockburst fault plan with the retry budget forced down, so nearly
// every contended block exercises its fallback path. p.Machine.Faults
// overrides the plan; benches defaults to the microbenchmarks; p.Size,
// p.Workers, p.Machine and p.Recorder are honored. Like FaultSoak, every
// cell runs and the report keeps all outcomes.
func FallbackMatrix(p Params, benches []string) *FallbackReport {
	plan, err := faults.Parse(FallbackBurstSpec)
	if err != nil {
		panic("experiments: FallbackBurstSpec does not parse: " + err.Error())
	}
	if p.Machine.Faults != nil {
		plan = *p.Machine.Faults
	}
	if len(benches) == 0 {
		benches = workloads.MicroNames()
	}
	var cells []FallbackCell
	for _, fb := range FallbackMatrixPaths() {
		for _, k := range fallbackMatrixSystems() {
			for _, b := range benches {
				cells = append(cells, FallbackCell{Fallback: fb, System: k, Bench: b})
			}
		}
	}
	var progress sweep.Progress
	if p.Verbose != nil {
		progress = func(done, total int) {
			fmt.Fprintf(p.Verbose, "fallback-matrix: %d/%d cells\n", done, total)
		}
	}
	errs := sweep.MapAll(p.Workers, len(cells), progress, func(i int) error {
		c := &cells[i]
		base, err := core.New(c.System)
		if err != nil {
			return err
		}
		traits := base.Traits()
		traits.Retries = fallbackRetries
		cfg := p.Machine
		cfg.Faults = &plan
		cfg.Fallback, err = machine.ParseFallback(c.Fallback)
		if err != nil {
			return err
		}
		st, rec, err := RunCell(Cell{System: c.System, Traits: &traits, Bench: c.Bench, Size: p.Size, Machine: cfg})
		if err != nil {
			return err
		}
		if p.Recorder != nil {
			p.Recorder(rec)
		}
		c.Stats = st
		return nil
	})
	for i := range cells {
		cells[i].Err = errs[i]
	}
	return &FallbackReport{Plan: plan, Cells: cells}
}
