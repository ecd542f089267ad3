// Package htm models the per-core best-effort hardware transactional
// memory state that all evaluated systems share (Section VI-B baseline):
// transaction status, abort causes, retry bookkeeping — plus the CHATS
// hardware additions from Fig. 2: the Position-in-Chain register, the
// Cons bit and the Validation State Buffer. Which of those structures a
// given system actually uses is decided by the conflict-resolution
// policy in package core. The read and write sets live in the core's L1
// (package cache): read stamps plus an eviction overflow set, and the SM
// lines.
package htm

import (
	"fmt"

	"chats/internal/cache"
	"chats/internal/coherence"
)

// Status is the lifecycle state of a core's current transaction.
type Status uint8

const (
	// Idle: no transaction running.
	Idle Status = iota
	// Active: speculative execution in progress.
	Active
	// Committing: waiting for the VSB to drain before commit.
	Committing
	// Aborted: the transaction was killed; the thread has not yet
	// unwound to its retry point.
	Aborted
	// Fallback: executing the software fallback path (global lock held);
	// accesses are non-speculative.
	Fallback
)

func (s Status) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Committing:
		return "committing"
	case Aborted:
		return "aborted"
	case Fallback:
		return "fallback"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// AbortCause classifies why a transaction rolled back (Fig. 5 splits
// aborts by these reasons).
type AbortCause uint8

const (
	CauseNone AbortCause = iota
	// CauseConflict: requester-wins resolution of a conflicting probe.
	CauseConflict
	// CauseCapacity: write-set overflow in L1, a spec-received line could
	// not be accommodated, or the VSB retry budget ran out.
	CauseCapacity
	// CauseValidation: value-based validation found a mismatch (producer
	// overwrote, aborted, or a third party modified the line).
	CauseValidation
	// CauseCycle: a (potential) cyclic dependency was broken — PiC refusal
	// at validation time, or the naive design's validation counter hitting
	// zero.
	CauseCycle
	// CauseStall: a nack-retry budget was exhausted (requester-stalls
	// escapes a potential deadlock).
	CauseStall
	// CauseLock: the fallback lock was acquired by another thread,
	// invalidating the eager lock subscription.
	CauseLock
	// CauseSpurious: an injected best-effort abort (modelling capacity
	// overflow from non-transactional cache pressure, interrupts, TLB
	// shootdowns — events real best-effort HTM suffers but the Table I
	// machine otherwise never produces). Only the fault injector raises it.
	CauseSpurious
	numCauses
)

// NumCauses is the number of distinct abort causes.
const NumCauses = int(numCauses)

func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseValidation:
		return "validation"
	case CauseCycle:
		return "cycle"
	case CauseStall:
		return "stall"
	case CauseLock:
		return "lock"
	case CauseSpurious:
		return "spurious"
	}
	return fmt.Sprintf("AbortCause(%d)", uint8(c))
}

// TxState is the transactional hardware state of one core.
type TxState struct {
	Status  Status
	Epoch   uint64 // bumped on every begin/abort; stale responses check it
	Attempt int    // 1-based attempt number of the current atomic block

	// L1 is the core's L1, which holds the read set (a perfect
	// signature that survives evictions, Section VI-B) and the write set
	// (the SM lines). Begin, MarkAborted and Finish empty the read set;
	// the caller gang-processes the SM lines. Nil in a bare state, which
	// then tracks neither set.
	L1 *cache.Cache

	// CHATS hardware (Fig. 2).
	PiC  coherence.PiC
	Cons bool
	VSB  *VSB

	// Power is set while this transaction holds the PowerTM token.
	Power bool
	// TS is the transaction timestamp for LEVC's idealized scheme.
	TS uint64

	// NaiveCounter is the naive requester-speculates design's 4-bit
	// validation counter (Section VI-B): decremented on each unsuccessful
	// validation attempt, reset on success, abort at zero.
	NaiveCounter int

	// ForwardedTo counts consumers this transaction has forwarded
	// speculative data to (LEVC limits this to one).
	ForwardedTo int

	// Per-transaction flags for Fig. 6.
	Conflicted bool // was on either side of a conflict
	Forwarded  bool // acted as a producer (sent at least one SpecResp)
	Consumed   bool // acted as a consumer (received at least one SpecResp)

	Cause AbortCause // cause of the pending abort, if Status == Aborted
}

// NewTxState returns idle transactional state with a VSB of the given
// capacity.
func NewTxState(vsbSize int) *TxState {
	return &TxState{
		PiC: coherence.PiCNone,
		VSB: NewVSB(vsbSize),
	}
}

// InTx reports whether speculative work is in flight (active or waiting
// to commit).
func (t *TxState) InTx() bool { return t.Status == Active || t.Status == Committing }

// Begin resets the state for a new attempt.
func (t *TxState) Begin(attempt int, naiveBudget int) {
	t.Status = Active
	t.Epoch++
	t.Attempt = attempt
	t.resetReads()
	t.PiC = coherence.PiCNone
	t.Cons = false
	t.VSB.Clear()
	t.NaiveCounter = naiveBudget
	t.ForwardedTo = 0
	t.Conflicted = false
	t.Forwarded = false
	t.Consumed = false
	t.Cause = CauseNone
}

// MarkAborted transitions to Aborted with the given cause, clearing the
// speculative structures. The caller handles L1 gang invalidation.
func (t *TxState) MarkAborted(cause AbortCause) {
	if !t.InTx() {
		panic("htm: abort outside transaction: " + t.Status.String())
	}
	t.Status = Aborted
	t.Epoch++
	t.Cause = cause
	t.resetReads()
	t.PiC = coherence.PiCNone
	t.Cons = false
	t.VSB.Clear()
}

// Finish transitions to Idle after a commit or after the abort has been
// delivered to the thread.
func (t *TxState) Finish() {
	t.Status = Idle
	t.Epoch++
	t.resetReads()
	t.PiC = coherence.PiCNone
	t.Cons = false
	t.Power = false
	t.VSB.Clear()
}

// resetReads empties the read set held in L1.
func (t *TxState) resetReads() {
	if t.L1 != nil {
		t.L1.ResetReads()
	}
}
