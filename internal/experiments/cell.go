package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/invariant"
	"chats/internal/machine"
	"chats/internal/runstore"
	"chats/internal/workloads"
)

// Cell is one simulation of the evaluation grid: a system, with optional
// Table II trait overrides, running one benchmark on one machine.
type Cell struct {
	System core.Kind
	// Traits, when non-nil, overrides the system's Table II defaults.
	Traits  *htm.Traits
	Bench   string
	Size    workloads.Size
	Machine machine.Config
	// Tracers observe the run. Each is per-run state (a collector or a
	// checker must not be shared across concurrent cells).
	Tracers []machine.Tracer
	// Checker, when non-nil, is attached after Tracers and fails the
	// cell on its first violation.
	Checker *invariant.Checker
}

// RunCell simulates c and returns its statistics and a run-store record
// whose Config names every non-default setting (see configKey); the
// caller stamps Meta and Source. The record's wall clock and allocation count cover Run alone,
// not the workload and machine build. Mallocs is process-wide, so
// beside concurrently running cells the count includes theirs; it is
// exact when nothing else runs. Any error names the cell's system,
// bench, seed and fault plan, so a failure reproduces from the message
// alone.
func RunCell(c Cell) (machine.RunStats, runstore.Record, error) {
	st, wallNS, allocs, err := c.run()
	if err != nil {
		return machine.RunStats{}, runstore.Record{}, c.wrap(err)
	}
	rec := runstore.FromStats(st, string(c.System), c.Machine.Seed, configKey(c.Traits, c.Machine),
		c.Size.String(), wallNS, allocs)
	return st, rec, nil
}

func (c Cell) run() (st machine.RunStats, wallNS int64, allocs uint64, err error) {
	w, err := workloads.New(c.Bench, c.Size)
	if err != nil {
		return st, 0, 0, err
	}
	var policy htm.Policy
	if c.Traits != nil {
		policy, err = core.NewWith(c.System, *c.Traits)
	} else {
		policy, err = core.New(c.System)
	}
	if err != nil {
		return st, 0, 0, err
	}
	m, err := machine.New(c.Machine, policy)
	if err != nil {
		return st, 0, 0, err
	}
	tracers := c.Tracers
	if c.Checker != nil {
		tracers = append(tracers[:len(tracers):len(tracers)], c.Checker)
	}
	m.SetTracer(tracers...)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, start := ms.Mallocs, time.Now()
	st, err = m.Run(w)
	wallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms)
	if err == nil && c.Checker != nil {
		err = c.Checker.Err()
	}
	return st, wallNS, ms.Mallocs - mallocs, err
}

// wrap prefixes err with the cell's identity: system/bench, any
// non-default config, the seed and the fault plan.
func (c Cell) wrap(err error) error {
	cfg := c.Machine
	cfg.Faults = nil // named on its own below
	name := string(c.System) + "/" + c.Bench
	if k := configKey(c.Traits, cfg); k != "" {
		name += "/" + k
	}
	if c.Machine.Faults != nil {
		return fmt.Errorf("cell %s (seed %d, faults %q): %w", name, c.Machine.Seed, c.Machine.Faults.String(), err)
	}
	return fmt.Errorf("cell %s (seed %d): %w", name, c.Machine.Seed, err)
}

func traitsKey(t *htm.Traits) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("r%d-v%d-i%d-f%d-n%d-p%v",
		t.Retries, t.VSBSize, t.ValidationInterval, t.ForwardMode, t.NaiveBudget, t.UsesPower)
}

// configKey is the Config component of a run-store key: the trait
// fingerprint, the machine's fallback/hot-line/backoff knobs, the core
// count when it differs from Table I's, and the fault plan when one is
// enabled, space-separated. A default run keys as "", so records keep
// their historical identity.
func configKey(t *htm.Traits, cfg machine.Config) string {
	parts := []string{traitsKey(t), cfg.KnobsKey()}
	if cfg.Cores != machine.DefaultConfig().Cores {
		parts = append(parts, fmt.Sprintf("cores=%d", cfg.Cores))
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		parts = append(parts, "faults="+cfg.Faults.String())
	}
	var key []string
	for _, p := range parts {
		if p != "" {
			key = append(key, p)
		}
	}
	return strings.Join(key, " ")
}
