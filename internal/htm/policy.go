package htm

import (
	"chats/internal/coherence"
	"chats/internal/mem"
)

// ProbeDecision is a conflict-resolution outcome at the responder side.
type ProbeDecision uint8

const (
	// DecideAbort: requester-wins — the local transaction rolls back and
	// the request is serviced with committed data.
	DecideAbort ProbeDecision = iota
	// DecideSpec: requester-speculates — answer with a SpecResp carrying
	// the current (speculative) value, keep ownership, cancel at the
	// directory.
	DecideSpec
	// DecideNack: requester-stalls — refuse without data; the requester
	// retries.
	DecideNack
)

func (d ProbeDecision) String() string {
	switch d {
	case DecideAbort:
		return "abort"
	case DecideSpec:
		return "spec"
	case DecideNack:
		return "nack"
	}
	return "decision?"
}

// ForwardMode selects which blocks are eligible for forwarding
// (Section VI-D).
type ForwardMode uint8

const (
	// ForwardRW: read-set and write-set blocks may be forwarded.
	ForwardRW ForwardMode = iota
	// ForwardW: only write-set blocks may be forwarded.
	ForwardW
	// ForwardRrestrictW: read- and write-set blocks, but read-set blocks
	// predicted to be written by the local transaction are excluded.
	ForwardRrestrictW
)

func (m ForwardMode) String() string {
	switch m {
	case ForwardRW:
		return "R/W"
	case ForwardW:
		return "W"
	case ForwardRrestrictW:
		return "Rrestrict/W"
	}
	return "mode?"
}

// ProbeContext describes a conflicting probe for the policy.
type ProbeContext struct {
	Line mem.Addr
	Kind coherence.ProbeKind
	Req  coherence.ReqInfo
	// InWriteSet: the conflict is on a write-set (SM) line; otherwise the
	// line is only in the read signature.
	InWriteSet bool
	// PredictedWrite: the Rrestrict/W heuristic predicts the local
	// transaction will write this (read-set) line before committing.
	PredictedWrite bool
	// Forwardable: a speculative response is mechanically possible. It is
	// false for invalidation probes (forwarding happens only from the
	// exclusive owner the directory forwards requests to — CHATS
	// piggybacks the usual transfer of coherence permissions and sharers
	// cannot refuse invalidations) and when the data is no longer held.
	Forwardable bool
}

// SpecOutcome is the consumer-side result of receiving a SpecResp.
type SpecOutcome struct {
	Accept bool
	// Retry: drop the speculative data and reissue the request (e.g., a
	// power transaction must not consume).
	Retry bool
	// Cause is set instead of Accept when the consumer must abort (e.g.,
	// a PiC race detected on arrival).
	Cause AbortCause
}

// ValidationOutcome is the result of inspecting a validation response.
type ValidationOutcome uint8

const (
	// ValidationPending: value matched but the data is still speculative
	// at the producer; keep the entry and retry later.
	ValidationPending ValidationOutcome = iota
	// ValidationDone: real permissions received and value matched; the
	// entry leaves the VSB.
	ValidationDone
	// ValidationAbort: mismatch or cycle detection; the consumer aborts.
	ValidationAbort
)

// Traits are the per-system configuration knobs of Table II.
type Traits struct {
	// Retries before the fallback path (Table II).
	Retries int
	// UsesVSB: the system can consume speculative data.
	UsesVSB bool
	// VSBSize is the number of VSB entries.
	VSBSize int
	// ValidationInterval is the periodic validation timer in cycles; 0
	// validates back-to-back (LEVC-BE-Idealized).
	ValidationInterval uint64
	// UsesPower: the system runs the PowerTM dual-priority runtime.
	UsesPower bool
	// PowerAfterAborts is the number of conflict aborts before a thread
	// requests the power token (PowerTM: after the second).
	PowerAfterAborts int
	// ForwardMode gates which blocks are forwarded.
	ForwardMode ForwardMode
	// NaiveBudget is the naive design's validation counter start value
	// (16 for a 4-bit counter); 0 disables the counter.
	NaiveBudget int
}

// Policy is the conflict-resolution brain of one evaluated HTM system.
// A Policy instance is shared by all cores (it carries no per-core
// mutable state; per-core state lives in TxState).
type Policy interface {
	Name() string
	Traits() Traits

	// DecideProbe resolves a conflicting probe at the responder. local is
	// the responder's transaction. The implementation applies the PiC
	// update rules of Fig. 3 (possibly mutating local.PiC) and returns
	// the PiC to embed in a SpecResp. Callers guarantee local.InTx() and
	// that the line is in local's read signature or write set.
	DecideProbe(local *TxState, pc ProbeContext) (ProbeDecision, coherence.PiC)

	// AcceptSpec runs at the consumer when a SpecResp arrives, applying
	// the consumer-side PiC/Cons updates. The caller has already checked
	// VSB capacity. A policy that never forwards returns the zero
	// SpecOutcome, which the caller treats as a protocol violation.
	AcceptSpec(local *TxState, pic coherence.PiC) SpecOutcome

	// ValidationCheck inspects a validation response for one VSB entry.
	// isSpec says the response was another SpecResp; pic is the PiC it
	// carried; match is the value comparison result. On ValidationAbort
	// the cause is returned. A policy without a VSB returns
	// ValidationAbort with CauseNone, which the caller treats as a
	// protocol violation.
	ValidationCheck(local *TxState, isSpec bool, pic coherence.PiC, match bool) (ValidationOutcome, AbortCause)
}
