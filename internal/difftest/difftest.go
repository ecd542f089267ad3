// Package difftest executes one randprog program on every evaluated HTM
// system and cross-checks each run against a single-threaded reference
// executor — the differential layer of the correctness stack.
//
// The oracle has three parts, checked per system:
//
//  1. Serializability modulo commit order: a tracer records the global
//     order of commit points (hardware commits and fallback critical
//     sections — the fallback lock aborts and excludes all hardware
//     transactions, so the Fallback event is an exact serialization
//     point). Replaying the program's atomic blocks in that order on
//     the serial interpreter must reproduce the machine's final shared
//     memory exactly, and per-core private slots must equal program
//     order. For commutative programs any order gives the serial
//     result, so all five systems are additionally forced to agree
//     with each other and with the reference executor.
//
//  2. Structural serializability: the existing internal/invariant
//     checker replays committed transactions in commit order during
//     the run (chain acyclicity, single-writer, PiC/Cons consistency,
//     shadow-memory equality).
//
//  3. Accounting sanity: every atomic block commits exactly once
//     (Commits + Fallbacks == blocks, also per core), abort causes sum
//     to Aborts, and the forwarding counters are internally consistent
//     (consumed <= sent, validated <= validations).
//
// On a failure, Minimize delta-debugs the program down to a minimal
// reproducer and the spec string goes into the committed corpus
// (corpus/*.txt), which corpus_test.go replays forever after.
package difftest

import (
	"fmt"
	"strings"
	"time"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/invariant"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/randprog"
	"chats/internal/runstore"
	"chats/internal/sweep"
)

// Systems returns the five paper systems the differential oracle runs
// (LEVC-BE-Idealized is excluded from the cross-check for the same
// reason the figures exclude it: it is an idealized bound, not a
// design under test — but it can be opted in via Options.Systems).
func Systems() []core.Kind {
	return []core.Kind{core.KindBaseline, core.KindNaiveRS, core.KindCHATS, core.KindPower, core.KindPCHATS}
}

// Options configures one differential check. The zero value checks the
// five paper systems on the default 16-core machine with the invariant
// checker attached.
type Options struct {
	// Machine, when non-nil, is the base machine configuration; Cores is
	// overridden to the program's core count per run.
	Machine *machine.Config
	// Systems, when non-empty, restricts or extends the checked systems.
	Systems []core.Kind
	// Wrap, when non-nil, post-processes each system's policy before the
	// run — the seam fault-injection and broken-policy tests use to
	// prove the oracle catches real protocol violations.
	Wrap func(core.Kind, htm.Policy) htm.Policy
	// Seed is the machine seed (0 means 1).
	Seed uint64
	// Faults optionally attaches a fault plan to every run.
	Faults *faults.Plan
	// NoInvariants detaches the structural checker, leaving only the
	// differential memory oracle (used to prove the oracle stands
	// alone).
	NoInvariants bool
	// Record, when non-nil, receives one runstore.Record per system run
	// that completed — even when an oracle then rejects the result: the
	// cost profile of a failing campaign is still data. Check calls it
	// on the caller's goroutine, in system order. Under Fuzz the
	// callback fires from worker goroutines, so it must be safe for
	// concurrent use (runstore.Store.Recorder is).
	Record func(runstore.Record)
}

func (o *Options) systems() []core.Kind {
	if len(o.Systems) > 0 {
		return o.Systems
	}
	return Systems()
}

func (o *Options) machineConfig(p *randprog.Program) machine.Config {
	var cfg machine.Config
	if o.Machine != nil {
		cfg = *o.Machine
	} else {
		cfg = machine.DefaultConfig()
		cfg.CycleLimit = 200_000_000
	}
	cfg.Cores = p.Cores
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults
	}
	return cfg
}

// recorder captures the global serialization order: one BlockRef per
// hardware commit or fallback entry. It relies on blocks executing in
// program order per core (each Atomic call commits exactly once).
type recorder struct {
	order []randprog.BlockRef
	next  []int // per-core next block index
}

func newRecorder(cores int) *recorder { return &recorder{next: make([]int, cores)} }

func (r *recorder) note(core int) {
	if core < 0 || core >= len(r.next) {
		return
	}
	r.order = append(r.order, randprog.BlockRef{Core: core, Index: r.next[core]})
	r.next[core]++
}

func (r *recorder) TxBegin(cycle uint64, core, attempt int, power bool)                          {}
func (r *recorder) TxCommit(cycle uint64, core int, consumed int)                                { r.note(core) }
func (r *recorder) TxAbort(cycle uint64, core int, cause htm.AbortCause)                         {}
func (r *recorder) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {}
func (r *recorder) Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC)             {}
func (r *recorder) Validate(cycle uint64, core int, line mem.Addr, ok bool)                      {}
func (r *recorder) Fallback(cycle uint64, core int)                                              { r.note(core) }

// CheckSystem runs the program on one system and applies the full
// oracle. The returned error carries the system name and the first
// divergence found.
func CheckSystem(p *randprog.Program, kind core.Kind, opts Options) error {
	if err := p.Validate(); err != nil {
		return err
	}
	policy, err := core.New(kind)
	if err != nil {
		return err
	}
	if opts.Wrap != nil {
		policy = opts.Wrap(kind, policy)
	}
	cfg := opts.machineConfig(p)
	m, err := machine.New(cfg, policy)
	if err != nil {
		return err
	}
	rec := newRecorder(p.Cores)
	tracers := machine.MultiTracer{rec}
	var chk *invariant.Checker
	if !opts.NoInvariants {
		chk = invariant.New()
		tracers = append(tracers, chk)
	}
	m.SetTracer(tracers)

	w := randprog.NewWorkload(p)
	start := time.Now()
	st, err := m.Run(w)
	if opts.Record != nil && err == nil {
		r := runstore.FromStats(st, string(kind), cfg.Seed, cfg.KnobsKey(), "fuzz",
			time.Since(start).Nanoseconds(), 0)
		r.StampWaves(m.WaveStats())
		opts.Record(r)
	}
	if err != nil {
		// Run already folds in the invariant checker's EndRun and the
		// workload's private-slot/commutative Check.
		return fmt.Errorf("%s: %w", kind, err)
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
	}

	// Accounting sanity.
	blocks := uint64(p.NumBlocks(-1))
	if st.Commits+st.Fallbacks != blocks {
		return fmt.Errorf("%s: commits %d + fallbacks %d != %d atomic blocks",
			kind, st.Commits, st.Fallbacks, blocks)
	}
	var byCause uint64
	for _, c := range st.ByCause {
		byCause += c
	}
	if byCause != st.Aborts {
		return fmt.Errorf("%s: abort causes sum to %d, Aborts = %d", kind, byCause, st.Aborts)
	}
	if st.SpecRespsConsumed > st.SpecRespsSent {
		return fmt.Errorf("%s: consumed %d spec responses, only %d sent",
			kind, st.SpecRespsConsumed, st.SpecRespsSent)
	}
	if st.ValidationsOK > st.Validations {
		return fmt.Errorf("%s: %d validations succeeded of %d issued",
			kind, st.ValidationsOK, st.Validations)
	}
	for c := 0; c < p.Cores; c++ {
		if rec.next[c] != p.NumBlocks(c) {
			return fmt.Errorf("%s: core %d committed %d blocks, program has %d",
				kind, c, rec.next[c], p.NumBlocks(c))
		}
	}

	// Serializability modulo commit order: replay the observed order.
	want, err := p.Replay(rec.order)
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	mem := m.World().Mem
	for i := 0; i < p.Pool; i++ {
		if got := mem.ReadWord(w.SlotAddr(i)); got != want.Shared[i] {
			return fmt.Errorf("%s: shared slot %d = %d, replay of observed commit order gives %d",
				kind, i, got, want.Shared[i])
		}
	}
	for c := 0; c < p.Cores; c++ {
		for k := 0; k < p.Priv; k++ {
			if got := mem.ReadWord(w.PrivAddr(c, k)); got != want.Priv[c][k] {
				return fmt.Errorf("%s: core %d private slot %d = %d, want %d",
					kind, c, k, got, want.Priv[c][k])
			}
		}
	}

	// Commutative programs must match the serial reference executor
	// exactly — the direct cross-system agreement oracle.
	if p.Commutative() {
		serial, err := p.Replay(p.SerialOrder())
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		for i := 0; i < p.Pool; i++ {
			if got := mem.ReadWord(w.SlotAddr(i)); got != serial.Shared[i] {
				return fmt.Errorf("%s: shared slot %d = %d, serial reference gives %d (commutative program)",
					kind, i, got, serial.Shared[i])
			}
		}
	}
	return nil
}

// Check runs the program on every configured system and returns the
// joined failures (nil when all systems pass). Systems are checked one
// after another in a fixed order, so the result is deterministic. A
// system that panics fails with a *sweep.CellPanic, prefixed with its
// name, instead of crashing the process; the other systems still run.
func Check(p *randprog.Program, opts Options) error {
	kinds := opts.systems()
	// One worker: the pool runs the systems in order on this goroutine
	// and only contributes the per-system panic recovery.
	errs := sweep.MapAll(1, len(kinds), nil, func(i int) error {
		return CheckSystem(p, kinds[i], opts)
	})
	var msgs []string
	for i, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := err.(*sweep.CellPanic); ok {
			err = fmt.Errorf("%s: %w", kinds[i], err)
		}
		msgs = append(msgs, err.Error())
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("difftest: %s", strings.Join(msgs, "; "))
}

// SkipValidation wraps a policy so value-based validation always
// reports a match — stale forwarded data is never detected, the bug
// class the VSB exists to prevent. Use as Options.Wrap in self-tests:
// the differential oracle must catch it.
func SkipValidation(p htm.Policy) htm.Policy { return brokenValidation{p} }

type brokenValidation struct{ htm.Policy }

func (p brokenValidation) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	return p.Policy.ValidationCheck(local, isSpec, pic, true)
}
