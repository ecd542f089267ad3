// Package machine assembles the full simulated multicore: cores with
// private L1s and HTM state, the MESI directory, the crossbar network,
// the PowerTM token runtime and the software fallback lock — and runs
// transactional workloads on it with a deterministic thread runner.
package machine

import (
	"fmt"
	"strings"

	"chats/internal/coherence"
	"chats/internal/faults"
	"chats/internal/htm"
)

// Config carries the Table I system parameters plus the simulator knobs
// that gem5 would take on its command line.
type Config struct {
	// Cores is the number of simulated cores/threads (Table I: 16).
	Cores int

	// L1Size and L1Ways describe the private L1 data cache
	// (Table I: 48 KiB, 12-way).
	L1Size int
	L1Ways int

	// L1Latency is the L1 hit latency in cycles (Table I: 1).
	L1Latency uint64
	// L2Latency is the private L2 lookup charged on every L1 miss
	// (Table I: 4-cycle minimum roundtrip).
	L2Latency uint64
	// LLCLatency is the shared L3/directory access latency
	// (Table I: 30-cycle minimum roundtrip, minus the network legs).
	LLCLatency uint64
	// DRAMLatency is charged on first touch of a line.
	DRAMLatency uint64
	// LinkLatency is the per-hop crossbar latency (Table I: 1 cycle).
	LinkLatency uint64

	// BeginLatency/CommitLatency/AbortLatency are the fixed costs of the
	// HTM primitives (xbegin/xend/rollback).
	BeginLatency  uint64
	CommitLatency uint64
	AbortLatency  uint64

	// BackoffBase scales the randomized retry backoff after an abort.
	BackoffBase uint64

	// Backoff selects the randomized backoff variant (exponential,
	// capped-linear, full-jitter) applied on top of BackoffBase. The
	// zero value is the historical exponential formula, bit-identical
	// to before the knob existed.
	Backoff BackoffConfig

	// Fallback selects the software fallback path taken when a thread
	// gives up on hardware speculation: the global lock (zero-value
	// default), the word-granular STM path, or lock elision with
	// per-core retry budgets.
	Fallback FallbackConfig

	// CM selects the contention manager making the post-abort
	// speculate/wait/fallback decision. The zero value is the fixed
	// manager (wait with backoff, fall back past the policy's retry
	// budget); the adaptive manager decides online per core and per
	// hot line.
	CM htm.CMConfig

	// NackRetryDelay is the requester-stall retry period; NackRetryLimit
	// bounds retries before the transaction gives up (escape from
	// pathological stalls).
	NackRetryDelay uint64
	NackRetryLimit int

	// VSBRetryDelay/VSBRetryLimit govern re-requesting a line whose
	// SpecResp arrived while the VSB was full.
	VSBRetryDelay uint64
	VSBRetryLimit int

	// PowerAttemptLimit is how many times a power transaction retries
	// before falling back to the global lock.
	PowerAttemptLimit int

	// CycleLimit aborts the simulation if the clock passes it (live-lock
	// backstop); 0 means unlimited.
	CycleLimit uint64

	// Seed drives every pseudo-random choice in the run.
	Seed uint64

	// Faults, when non-nil, enables deterministic fault injection per the
	// plan (see package faults). The injector draws from its own PRNG
	// seeded from Seed, so a faulted run stays bit-reproducible.
	Faults *faults.Plan

	// WatchdogCycles, when non-zero, arms the livelock watchdog: if no
	// transaction commits and no fallback section starts for this many
	// cycles while threads are still running, the run is killed with a
	// LivelockError carrying a diagnostic dump instead of spinning to the
	// cycle limit.
	WatchdogCycles uint64

	// MaxAttempts, when non-zero, bounds the attempts of a single atomic
	// block; a transaction beginning attempt MaxAttempts+1 trips the
	// watchdog with a starvation diagnostic. Zero means unlimited.
	MaxAttempts int
}

// DefaultConfig returns the Table I machine.
func DefaultConfig() Config {
	return Config{
		Cores:             16,
		L1Size:            48 * 1024,
		L1Ways:            12,
		L1Latency:         1,
		L2Latency:         4,
		LLCLatency:        24,
		DRAMLatency:       120,
		LinkLatency:       1,
		BeginLatency:      5,
		CommitLatency:     5,
		AbortLatency:      20,
		BackoffBase:       32,
		NackRetryDelay:    20,
		NackRetryLimit:    512,
		VSBRetryDelay:     50,
		VSBRetryLimit:     16,
		PowerAttemptLimit: 8,
		CycleLimit:        400_000_000,
		Seed:              1,
	}
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > coherence.MaxCores {
		return fmt.Errorf("machine: cores must be in 1..%d, got %d", coherence.MaxCores, c.Cores)
	}
	if c.L1Size <= 0 || c.L1Ways <= 0 {
		return fmt.Errorf("machine: bad L1 geometry %d/%d", c.L1Size, c.L1Ways)
	}
	if c.NackRetryLimit <= 0 || c.VSBRetryLimit <= 0 || c.PowerAttemptLimit <= 0 {
		return fmt.Errorf("machine: retry limits must be positive")
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("machine: MaxAttempts must be non-negative, got %d", c.MaxAttempts)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if err := c.Backoff.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := c.Fallback.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := c.CM.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// KnobsKey renders the non-default fallback/CM/backoff knobs as a
// short spec fragment for record keys and cell labels; empty for a
// default config, so existing keys are unchanged.
func (c Config) KnobsKey() string {
	var parts []string
	if c.Fallback.Kind != FallbackLock || c.Fallback != (FallbackConfig{}) {
		parts = append(parts, "fb="+c.Fallback.String())
	}
	if c.CM.Kind != htm.CMFixed {
		parts = append(parts, "cm="+c.CM.String())
	}
	if c.Backoff != (BackoffConfig{}) {
		parts = append(parts, "bo="+c.Backoff.String())
	}
	if len(parts) == 0 {
		return ""
	}
	return strings.Join(parts, " ")
}
