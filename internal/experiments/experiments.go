// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII). Each FigN function returns text tables whose
// rows/series match what the paper plots; cmd/chats-experiments prints
// them and EXPERIMENTS.md records the comparison against the paper.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/invariant"
	"chats/internal/machine"
	"chats/internal/runstore"
	"chats/internal/stats"
	"chats/internal/sweep"
	"chats/internal/workloads"
)

// Params configures a suite run.
type Params struct {
	// Size selects the workload scale (medium regenerates the figures).
	Size workloads.Size
	// Machine is the base Table I configuration.
	Machine machine.Config
	// Seeds is the number of seeds each cell is averaged over (0 or 1 =
	// single run with Machine.Seed).
	Seeds int
	// Verbose, when non-nil, receives a progress line per simulation.
	// When cells run in parallel the lines appear in completion order,
	// but every cell's statistics are identical to a serial run (each
	// cell owns its engine, machine and workload, so results are
	// bit-reproducible regardless of scheduling).
	Verbose io.Writer
	// Workers bounds how many simulation cells run concurrently: 1 is
	// serial and 0 is runtime.GOMAXPROCS(0), as in sweep.Map (the CLIs
	// wire -j here). Only wall clock changes with Workers — never
	// results.
	Workers int
	// Tracer, when non-nil, builds a fresh tracer per simulation. A
	// telemetry.Collector is per-run state and must NOT be shared across
	// parallel cells; this factory makes one collector per cell instead.
	Tracer func() machine.Tracer
	// Invariants attaches a fresh invariant.Checker to every cell; a
	// violation fails that cell with the checker's diagnostic.
	Invariants bool
	// Progress, when non-nil, receives live done/total updates while a
	// figure grid primes (the CLIs wire -progress here). Each grid
	// restarts the count; calls are serialized by the sweep pool.
	Progress sweep.Progress
	// Recorder, when non-nil, receives one runstore.Record per completed
	// simulation — the persistence seam the -store flags hook up
	// (runstore.Store.Recorder stamps commit metadata and appends).
	// Called from worker goroutines, so it must be safe for concurrent
	// use; recording is per-run, never per-event, so it costs the
	// simulation hot path nothing.
	Recorder func(runstore.Record)
}

// DefaultParams returns the figure-regeneration setup.
func DefaultParams() Params {
	return Params{Size: workloads.Medium, Machine: machine.DefaultConfig()}
}

type runKey struct {
	system core.Kind
	traits string // fingerprint of trait overrides ("" = Table II default)
	bench  string
}

// Suite runs (and memoizes) simulations; the main-matrix runs are shared
// by Figs. 1, 4, 5, 6 and 7, like the artifact's config.chats.main.py.
// The figure functions fan their cells out over Params.Workers
// goroutines; the Suite's shared state (cache, Runs, Verbose writer)
// is mutex-guarded, while each simulation itself is confined to one
// goroutine.
type Suite struct {
	p     Params
	mu    sync.Mutex // guards cache, Runs, Verbose output
	cache map[runKey]machine.RunStats
	// Runs counts distinct simulations executed.
	Runs int
}

// NewSuite builds an empty suite.
func NewSuite(p Params) *Suite {
	return &Suite{p: p, cache: make(map[runKey]machine.RunStats)}
}

// cell identifies one simulation of a figure grid before it runs.
type cell struct {
	kind   core.Kind
	traits *htm.Traits
	bench  string
}

// prime simulates every not-yet-cached cell of a figure, fanning them
// out over Params.Workers goroutines. The figure functions call it
// before building their tables, so the table loops below always hit the
// cache and stay strictly ordered; only the simulations themselves run
// concurrently. Duplicate cells (shared baselines) are deduplicated, so
// Runs counts exactly the distinct simulations.
func (s *Suite) prime(cells []cell) error {
	var todo []cell
	seen := make(map[runKey]bool, len(cells))
	s.mu.Lock()
	for _, c := range cells {
		k := runKey{system: c.kind, traits: traitsKey(c.traits), bench: c.bench}
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := s.cache[k]; ok {
			continue
		}
		todo = append(todo, c)
	}
	s.mu.Unlock()
	if len(todo) == 0 {
		return nil
	}
	var verbose sweep.Progress
	if s.p.Verbose != nil && s.p.Workers != 1 {
		verbose = func(done, total int) {
			s.mu.Lock() // all Verbose writes go through s.mu
			fmt.Fprintf(s.p.Verbose, "sweep: %d/%d cells\n", done, total)
			s.mu.Unlock()
		}
	}
	progress := verbose
	switch {
	case s.p.Progress != nil && verbose != nil:
		progress = func(done, total int) {
			verbose(done, total)
			s.p.Progress(done, total)
		}
	case s.p.Progress != nil:
		progress = s.p.Progress
	}
	return sweep.Map(s.p.Workers, len(todo), progress, func(i int) error {
		_, err := s.Run(todo[i].kind, todo[i].traits, todo[i].bench)
		return err
	})
}

// Run simulates one (system, traits, bench) cell, memoized, averaging
// over Params.Seeds seeds. Safe for concurrent use; callers that need a
// whole grid should go through the figure functions (which prime the
// cache in parallel) rather than racing duplicate cells here.
func (s *Suite) Run(kind core.Kind, traits *htm.Traits, bench string) (machine.RunStats, error) {
	k := runKey{system: kind, traits: traitsKey(traits), bench: bench}
	s.mu.Lock()
	if st, ok := s.cache[k]; ok {
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()
	seeds := s.p.Seeds
	if seeds < 1 {
		seeds = 1
	}
	var runs []machine.RunStats
	for i := 0; i < seeds; i++ {
		st, err := s.runOnce(kind, traits, bench, s.p.Machine.Seed+uint64(i))
		if err != nil {
			return machine.RunStats{}, err
		}
		runs = append(runs, st)
	}
	st := average(runs)
	s.mu.Lock()
	s.cache[k] = st
	if s.p.Verbose != nil {
		fmt.Fprintf(s.p.Verbose, "ran %-18s %-10s %12d cycles  %6d commits  %6d aborts\n",
			kind, bench, st.Cycles, st.Commits, st.Aborts)
	}
	s.mu.Unlock()
	return st, nil
}

// stat reads a cell that prime has already run from the memo; the
// figure tables read their cells through it after priming.
func (s *Suite) stat(kind core.Kind, traits *htm.Traits, bench string) machine.RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.cache[runKey{system: kind, traits: traitsKey(traits), bench: bench}]
	if !ok {
		panic(fmt.Sprintf("experiments: cell %s/%s read before it was primed", kind, bench))
	}
	return st
}

// Grid runs every (kind, bench) cell, kind k under traits[k] (nil =
// Table II), and returns the statistics in system-major order. A
// repeated name repeats its row but runs once.
func (s *Suite) Grid(kinds []core.Kind, traits map[core.Kind]*htm.Traits, benches []string) ([]machine.RunStats, error) {
	var cells []cell
	for _, k := range kinds {
		for _, b := range benches {
			cells = append(cells, cell{kind: k, traits: traits[k], bench: b})
		}
	}
	if err := s.prime(cells); err != nil {
		return nil, err
	}
	out := make([]machine.RunStats, len(cells))
	for i, c := range cells {
		out[i] = s.stat(c.kind, c.traits, c.bench)
	}
	return out, nil
}

func (s *Suite) runOnce(kind core.Kind, traits *htm.Traits, bench string, seed uint64) (machine.RunStats, error) {
	c := Cell{System: kind, Traits: traits, Bench: bench, Size: s.p.Size, Machine: s.p.Machine}
	c.Machine.Seed = seed
	if s.p.Tracer != nil {
		c.Tracers = []machine.Tracer{s.p.Tracer()}
	}
	if s.p.Invariants {
		c.Checker = invariant.New()
	}
	st, rec, err := RunCell(c)
	if err != nil {
		return machine.RunStats{}, err
	}
	if s.p.Recorder != nil {
		s.p.Recorder(rec)
	}
	s.mu.Lock()
	s.Runs++
	s.mu.Unlock()
	return st, nil
}

// average folds per-seed runs into one RunStats with mean counts (the
// figure-relevant fields).
func average(runs []machine.RunStats) machine.RunStats {
	if len(runs) == 1 {
		return runs[0]
	}
	n := uint64(len(runs))
	out := runs[0]
	agg := func(get func(*machine.RunStats) *uint64) {
		var sum uint64
		for i := range runs {
			sum += *get(&runs[i])
		}
		*get(&out) = sum / n
	}
	agg(func(r *machine.RunStats) *uint64 { return &r.Cycles })
	agg(func(r *machine.RunStats) *uint64 { return &r.Commits })
	agg(func(r *machine.RunStats) *uint64 { return &r.Aborts })
	// Fold causes in ascending index order so the per-cause tables (and
	// their goldens) come out byte-stable run over run.
	for c := 0; c < htm.NumCauses; c++ {
		c := c
		agg(func(r *machine.RunStats) *uint64 { return &r.ByCause[c] })
	}
	agg(func(r *machine.RunStats) *uint64 { return &r.Fallbacks })
	agg(func(r *machine.RunStats) *uint64 { return &r.PowerAcqs })
	agg(func(r *machine.RunStats) *uint64 { return &r.ConflictedCommitted })
	agg(func(r *machine.RunStats) *uint64 { return &r.ConflictedAborted })
	agg(func(r *machine.RunStats) *uint64 { return &r.ForwarderCommitted })
	agg(func(r *machine.RunStats) *uint64 { return &r.ForwarderAborted })
	agg(func(r *machine.RunStats) *uint64 { return &r.ConsumerCommitted })
	agg(func(r *machine.RunStats) *uint64 { return &r.ConsumerAborted })
	agg(func(r *machine.RunStats) *uint64 { return &r.SpecRespsSent })
	agg(func(r *machine.RunStats) *uint64 { return &r.SpecRespsConsumed })
	agg(func(r *machine.RunStats) *uint64 { return &r.Validations })
	agg(func(r *machine.RunStats) *uint64 { return &r.ValidationsOK })
	agg(func(r *machine.RunStats) *uint64 { return &r.Flits })
	agg(func(r *machine.RunStats) *uint64 { return &r.Messages })
	agg(func(r *machine.RunStats) *uint64 { return &r.L1Hits })
	agg(func(r *machine.RunStats) *uint64 { return &r.L1Misses })
	agg(func(r *machine.RunStats) *uint64 { return &r.FaultsInjected })
	return out
}

// mainSystems are the Fig. 4–7 series.
func mainSystems() []core.Kind {
	return []core.Kind{core.KindBaseline, core.KindNaiveRS, core.KindCHATS, core.KindPower, core.KindPCHATS}
}

func sysNames(ks []core.Kind) []string {
	ns := make([]string, len(ks))
	for i, k := range ks {
		ns[i] = string(k)
	}
	return ns
}

// mainMatrixCells enumerates the (systems × benchmarks) grid plus the
// baseline column the normalizations divide by.
func mainMatrixCells(systems []core.Kind) []cell {
	var cells []cell
	for _, b := range workloads.AllNames() {
		cells = append(cells, cell{kind: core.KindBaseline, bench: b})
		for _, k := range systems {
			cells = append(cells, cell{kind: k, bench: b})
		}
	}
	return cells
}

// normTimeTable builds a rows=benchmarks, cols=systems table of execution
// time normalized to the baseline, with means over the STAMP subset.
func (s *Suite) normTimeTable(title string, systems []core.Kind) (*stats.Table, error) {
	if err := s.prime(mainMatrixCells(systems)); err != nil {
		return nil, err
	}
	t := stats.NewTable(title, workloads.AllNames(), sysNames(systems))
	t.Note = "execution time normalized to baseline (lower is better); means over STAMP only"
	for _, b := range workloads.AllNames() {
		base := s.stat(core.KindBaseline, nil, b)
		for _, k := range systems {
			t.Set(b, string(k), stats.Ratio(s.stat(k, nil, b).Cycles, base.Cycles))
		}
	}
	t.AddMeanRows(workloads.STAMPNames())
	return t, nil
}

// Fig1 reproduces the motivation figure: a naive requester-speculates
// implementation vs the best-effort baseline.
func (s *Suite) Fig1() (*stats.Table, error) {
	return s.normTimeTable("Fig. 1: naive requester-speculates vs baseline",
		[]core.Kind{core.KindBaseline, core.KindNaiveRS})
}

// Fig4 reproduces the headline execution-time comparison.
func (s *Suite) Fig4() (*stats.Table, error) {
	return s.normTimeTable("Fig. 4: execution time", mainSystems())
}

// Fig5 reproduces the abort counts split by cause: one summary table
// (total aborted transactions normalized to baseline) plus one absolute
// per-cause table per system.
func (s *Suite) Fig5() ([]*stats.Table, error) {
	if err := s.prime(mainMatrixCells(mainSystems())); err != nil {
		return nil, err
	}
	summary := stats.NewTable("Fig. 5: aborted transactions (normalized to baseline)",
		workloads.AllNames(), sysNames(mainSystems()))
	var tables []*stats.Table
	causeCols := make([]string, 0, htm.NumCauses-1)
	for c := 1; c < htm.NumCauses; c++ {
		causeCols = append(causeCols, htm.AbortCause(c).String())
	}
	for _, k := range mainSystems() {
		ct := stats.NewTable(fmt.Sprintf("Fig. 5 detail: %s aborts by cause", k),
			workloads.AllNames(), causeCols)
		ct.Format = "%.0f"
		for _, b := range workloads.AllNames() {
			st := s.stat(k, nil, b)
			summary.Set(b, string(k), stats.Ratio(st.Aborts, s.stat(core.KindBaseline, nil, b).Aborts))
			for c := 1; c < htm.NumCauses; c++ {
				ct.Set(b, htm.AbortCause(c).String(), float64(st.ByCause[c]))
			}
		}
		tables = append(tables, ct)
	}
	summary.AddMeanRows(workloads.STAMPNames())
	return append([]*stats.Table{summary}, tables...), nil
}

// Fig6 reproduces the conflicted/forwarder transaction outcome split:
// for each system, the fraction of executed transactions that conflicted
// (and, where applicable, forwarded), split by commit/abort.
func (s *Suite) Fig6() ([]*stats.Table, error) {
	if err := s.prime(mainMatrixCells(mainSystems())); err != nil {
		return nil, err
	}
	var tables []*stats.Table
	cols := []string{"conflicted-committed", "conflicted-aborted", "forwarder-committed", "forwarder-aborted"}
	for _, k := range mainSystems() {
		t := stats.NewTable(fmt.Sprintf("Fig. 6: conflicting/forwarding transactions under %s", k),
			workloads.AllNames(), cols)
		t.Note = "fraction of executed transaction attempts"
		for _, b := range workloads.AllNames() {
			st := s.stat(k, nil, b)
			exec := st.Commits + st.Aborts
			t.Set(b, "conflicted-committed", stats.Ratio(st.ConflictedCommitted, exec))
			t.Set(b, "conflicted-aborted", stats.Ratio(st.ConflictedAborted, exec))
			t.Set(b, "forwarder-committed", stats.Ratio(st.ForwarderCommitted, exec))
			t.Set(b, "forwarder-aborted", stats.Ratio(st.ForwarderAborted, exec))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 reproduces the normalized network usage in flits.
func (s *Suite) Fig7() (*stats.Table, error) {
	if err := s.prime(mainMatrixCells(mainSystems())); err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 7: network usage (flits, normalized to baseline)",
		workloads.AllNames(), sysNames(mainSystems()))
	for _, b := range workloads.AllNames() {
		base := s.stat(core.KindBaseline, nil, b)
		for _, k := range mainSystems() {
			t.Set(b, string(k), stats.Ratio(s.stat(k, nil, b).Flits, base.Flits))
		}
	}
	t.AddMeanRows(workloads.STAMPNames())
	return t, nil
}
