package core

import (
	"chats/internal/coherence"
	"chats/internal/htm"
)

// Baseline is the commercial-like requester-wins best-effort HTM
// (Section VI-B): every conflicting probe aborts the responder.
type Baseline struct {
	traits htm.Traits
}

// NewBaseline builds the baseline with Table II's 6 retries.
func NewBaseline() *Baseline {
	return &Baseline{traits: htm.Traits{Retries: 6}}
}

// NewBaselineWith builds a baseline variant (retry sensitivity).
func NewBaselineWith(t htm.Traits) *Baseline {
	t.UsesVSB = false
	return &Baseline{traits: t}
}

func (b *Baseline) Name() string       { return "Baseline" }
func (b *Baseline) Traits() htm.Traits { return b.traits }

// DecideProbe always resolves requester-wins.
func (b *Baseline) DecideProbe(local *htm.TxState, pc htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	return htm.DecideAbort, coherence.PiCNone
}

// AcceptSpec never runs: the baseline never forwards. Its zero outcome
// fails the run, naming the cycle, core and line.
func (b *Baseline) AcceptSpec(local *htm.TxState, pic coherence.PiC) htm.SpecOutcome {
	return htm.SpecOutcome{}
}

// ValidationCheck never runs: the baseline has no VSB. Its causeless
// abort fails the run, naming the cycle, core and line.
func (b *Baseline) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	return htm.ValidationAbort, htm.CauseNone
}

// NaiveRS is the naive requester-speculates design of Fig. 1 and
// Section VI-B: forward always, no dependency tracking; a 4-bit counter
// of consecutive unsuccessful validation attempts breaks cycles by
// aborting the consumer.
type NaiveRS struct {
	traits htm.Traits
}

// NewNaiveRS builds the naive design with Table II's configuration:
// 2 retries, 4 VSB entries, 50-cycle validation, 16-attempt counter.
func NewNaiveRS() *NaiveRS {
	return &NaiveRS{traits: htm.Traits{
		Retries:            2,
		UsesVSB:            true,
		VSBSize:            4,
		ValidationInterval: 50,
		ForwardMode:        htm.ForwardRW,
		NaiveBudget:        16,
	}}
}

// NewNaiveRSWith builds a naive variant.
func NewNaiveRSWith(t htm.Traits) *NaiveRS {
	t.UsesVSB = true
	if t.NaiveBudget == 0 {
		t.NaiveBudget = 16
	}
	return &NaiveRS{traits: t}
}

func (n *NaiveRS) Name() string       { return "NaiveRS" }
func (n *NaiveRS) Traits() htm.Traits { return n.traits }

// DecideProbe forwards unconditionally (subject only to the block
// eligibility mode, R/W for the naive design), carrying no PiC.
func (n *NaiveRS) DecideProbe(local *htm.TxState, pc htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	if !forwardEligible(n.traits.ForwardMode, pc) {
		return htm.DecideAbort, coherence.PiCNone
	}
	return htm.DecideSpec, coherence.PiCNone
}

// AcceptSpec always consumes.
func (n *NaiveRS) AcceptSpec(local *htm.TxState, pic coherence.PiC) htm.SpecOutcome {
	local.Cons = true
	return htm.SpecOutcome{Accept: true}
}

// ValidationCheck decrements the validation counter on every
// unsuccessful attempt and aborts when it reaches zero, escaping
// potential cyclic deadlocks (Section VI-B).
func (n *NaiveRS) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	if !match {
		return htm.ValidationAbort, htm.CauseValidation
	}
	if !isSpec {
		local.NaiveCounter = n.traits.NaiveBudget // success resets
		return htm.ValidationDone, htm.CauseNone
	}
	local.NaiveCounter--
	if local.NaiveCounter <= 0 {
		return htm.ValidationAbort, htm.CauseCycle
	}
	return htm.ValidationPending, htm.CauseNone
}
