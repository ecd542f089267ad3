package experiments

import (
	"fmt"
	"io"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/invariant"
	"chats/internal/machine"
	"chats/internal/sweep"
	"chats/internal/workloads"
)

// SoakCell is one (system, bench) cell of a fault soak.
type SoakCell struct {
	System core.Kind
	Bench  string
	Stats  machine.RunStats
	Err    error
}

// SoakReport collects a full fault-soak sweep. Unlike the figure
// functions, a soak never stops at the first failure: every cell runs
// (sweep.MapAll) and the report keeps all outcomes.
type SoakReport struct {
	Plan  faults.Plan
	Cells []SoakCell
}

// Failures returns the cells that errored, in grid order.
func (r *SoakReport) Failures() []SoakCell {
	var out []SoakCell
	for _, c := range r.Cells {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// Write renders the soak outcome as one line per cell plus a verdict.
func (r *SoakReport) Write(w io.Writer) {
	fmt.Fprintf(w, "fault soak: plan %q\n", r.Plan.String())
	for _, c := range r.Cells {
		if c.Err != nil {
			fmt.Fprintf(w, "  FAIL %-10s %-10s %v\n", c.System, c.Bench, c.Err)
			continue
		}
		fmt.Fprintf(w, "  ok   %-10s %-10s %10d cycles %8d commits %8d aborts %8d faults\n",
			c.System, c.Bench, c.Stats.Cycles, c.Stats.Commits, c.Stats.Aborts, c.Stats.FaultsInjected)
	}
	if n := len(r.Failures()); n > 0 {
		fmt.Fprintf(w, "fault soak: %d of %d cells FAILED\n", n, len(r.Cells))
		return
	}
	fmt.Fprintf(w, "fault soak: all %d cells clean (invariants on)\n", len(r.Cells))
}

// FaultSoak runs every system × bench cell under the fault plan with the
// invariant checker armed, and reports every cell's outcome.
// p.Machine.Faults defaults to faults.SoakPlan(); p.Machine's watchdog
// and cycle limit bound each cell; p.Size, p.Workers and p.Recorder are
// honored; benches defaults to the microbenchmarks (the forwarding-heavy
// subset).
func FaultSoak(p Params, benches []string) *SoakReport {
	plan := faults.SoakPlan()
	if p.Machine.Faults != nil {
		plan = *p.Machine.Faults
	}
	if len(benches) == 0 {
		benches = workloads.MicroNames()
	}
	systems := mainSystems()
	var cells []SoakCell
	for _, b := range benches {
		for _, k := range systems {
			cells = append(cells, SoakCell{System: k, Bench: b})
		}
	}
	var progress sweep.Progress
	if p.Verbose != nil {
		progress = func(done, total int) {
			fmt.Fprintf(p.Verbose, "soak: %d/%d cells\n", done, total)
		}
	}
	errs := sweep.MapAll(p.Workers, len(cells), progress, func(i int) error {
		c := &cells[i]
		cfg := p.Machine
		cfg.Faults = &plan
		st, rec, err := RunCell(Cell{System: c.System, Bench: c.Bench, Size: p.Size, Machine: cfg,
			Checker: invariant.New()})
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
	return &SoakReport{Plan: plan, Cells: cells}
}
