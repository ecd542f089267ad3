// Package chats is a software reproduction of "Chaining Transactions for
// Effective Concurrency Management in Hardware Transactional Memory"
// (MICRO 2024): a deterministic multicore simulator with best-effort HTM
// whose conflict-resolution policy is pluggable, including the paper's
// CHATS requester-speculates design and every system it is evaluated
// against.
//
// Quick start:
//
//	cfg := chats.DefaultConfig()
//	cfg.System = chats.CHATS
//	stats, err := chats.Run(cfg, myWorkload)
//
// A workload implements chats.Workload: Setup lays out data in simulated
// memory, Thread runs on each simulated core using chats.Ctx (Atomic,
// Load, Store, Work), and Check verifies the final memory image. The
// STAMP-like benchmarks of the paper's evaluation are available through
// chats.NewWorkload.
package chats

import (
	"fmt"
	"io"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
)

// SystemKind selects the evaluated HTM system.
type SystemKind = core.Kind

// The evaluated systems (Section VI-B).
const (
	Baseline SystemKind = core.KindBaseline // requester-wins, Intel-RTM-like
	NaiveRS  SystemKind = core.KindNaiveRS  // naive requester-speculates (Fig. 1)
	CHATS    SystemKind = core.KindCHATS    // the paper's contribution
	Power    SystemKind = core.KindPower    // PowerTM dual priority
	PCHATS   SystemKind = core.KindPCHATS   // CHATS + PowerTM
	LEVC     SystemKind = core.KindLEVC     // LEVC-BE-Idealized
)

// Systems lists all systems in the paper's presentation order.
func Systems() []SystemKind { return core.Kinds() }

// Addr is a simulated physical byte address.
type Addr = mem.Addr

// LineSize is the simulated cache line size in bytes.
const LineSize = mem.LineSize

// WordSize is the simulated machine word size in bytes.
const WordSize = mem.WordSize

// Re-exported workload-facing types.
type (
	// Workload is a transactional program (see package documentation).
	Workload = machine.Workload
	// Ctx is the per-thread programming interface.
	Ctx = machine.Ctx
	// Tx is the handle inside an atomic block.
	Tx = machine.Tx
	// World is the simulated memory view used by Setup/Check.
	World = machine.World
	// Stats are the per-run statistics (cycles, aborts by cause, flits...).
	Stats = machine.RunStats
	// Traits are the per-system tunables of Table II (retries, VSB size,
	// validation interval, forwarding mode).
	Traits = htm.Traits
	// MachineConfig are the Table I machine parameters.
	MachineConfig = machine.Config
	// Tracer observes the transactional event stream of a run (see
	// machine.Tracer; telemetry.New builds a collecting implementation).
	Tracer = machine.Tracer
	// MultiTracer fans events out to several tracers at once.
	MultiTracer = machine.MultiTracer
)

// Config selects the machine, the HTM system and optional trait
// overrides for one run.
type Config struct {
	// Machine carries the Table I parameters (cores, caches, latencies).
	Machine MachineConfig
	// System picks the conflict-resolution design.
	System SystemKind
	// Traits, when non-nil, overrides the system's Table II defaults —
	// used by the sensitivity analyses (retry count, VSB size, validation
	// interval, forwarding mode).
	Traits *Traits
}

// DefaultConfig returns the paper's 16-core Table I machine running the
// baseline system.
func DefaultConfig() Config {
	return Config{Machine: machine.DefaultConfig(), System: Baseline}
}

// Run simulates the workload on the configured machine and returns the
// collected statistics. The workload's Check runs on the flushed final
// memory image; its failure is returned as an error.
func Run(cfg Config, w Workload) (Stats, error) {
	m, err := build(cfg)
	if err != nil {
		return Stats{}, err
	}
	return m.Run(w)
}

// RunTraced is Run with a per-event transactional trace (begins,
// commits, aborts, forwardings, validations) written to out.
func RunTraced(cfg Config, w Workload, out io.Writer) (Stats, error) {
	return RunWithTracer(cfg, w, machine.WriterTracer{W: out})
}

// WriterTracer returns a Tracer that formats every event as one line on
// w (what chatsim -trace and RunTraced attach).
func WriterTracer(w io.Writer) Tracer { return machine.WriterTracer{W: w} }

// RunWithTracer is Run with an arbitrary tracer attached — a
// machine.WriterTracer, a telemetry.Collector, or several at once via a
// MultiTracer. The tracer observes every transactional event of the run.
func RunWithTracer(cfg Config, w Workload, t Tracer) (Stats, error) {
	m, err := build(cfg)
	if err != nil {
		return Stats{}, err
	}
	m.SetTracer(t)
	return m.Run(w)
}

func build(cfg Config) (*machine.Machine, error) {
	var (
		policy htm.Policy
		err    error
	)
	if cfg.Traits != nil {
		policy, err = core.NewWith(cfg.System, *cfg.Traits)
	} else {
		policy, err = core.New(cfg.System)
	}
	if err != nil {
		return nil, err
	}
	return machine.New(cfg.Machine, policy)
}

// SystemTraits returns the Table II default traits of a system.
func SystemTraits(k SystemKind) (Traits, error) {
	p, err := core.New(k)
	if err != nil {
		return Traits{}, err
	}
	return p.Traits(), nil
}

// ParseSystem converts a CLI string into a SystemKind.
func ParseSystem(s string) (SystemKind, error) {
	k := SystemKind(s)
	if _, err := core.New(k); err != nil {
		return "", fmt.Errorf("chats: unknown system %q (known: %v)", s, core.KindNames())
	}
	return k, nil
}
