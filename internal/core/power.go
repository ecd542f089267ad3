package core

import (
	"chats/internal/coherence"
	"chats/internal/htm"
)

// Power is the PowerTM-like dual-priority system (Section VI-B): after
// the second conflict-induced abort a thread acquires the (unique) power
// token; conflicts involving a power transaction are resolved in its
// favor, and a power responder nacks requesters without invalidating
// their data.
type Power struct {
	traits htm.Traits
}

// NewPower builds PowerTM with Table II's 2 retries.
func NewPower() *Power {
	return &Power{traits: htm.Traits{
		Retries:          2,
		UsesPower:        true,
		PowerAfterAborts: 2,
	}}
}

// NewPowerWith builds a PowerTM variant.
func NewPowerWith(t htm.Traits) *Power {
	t.UsesVSB = false
	t.UsesPower = true
	if t.PowerAfterAborts == 0 {
		t.PowerAfterAborts = 2
	}
	return &Power{traits: t}
}

func (p *Power) Name() string       { return "Power" }
func (p *Power) Traits() htm.Traits { return p.traits }

// DecideProbe: a power responder nacks; a power requester wins; otherwise
// requester-wins as in the baseline.
func (p *Power) DecideProbe(local *htm.TxState, pc htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	if pc.Req.Power {
		return htm.DecideAbort, coherence.PiCNone
	}
	if local.Power {
		return htm.DecideNack, coherence.PiCNone
	}
	return htm.DecideAbort, coherence.PiCNone
}

// AcceptSpec never runs: PowerTM does not forward. Its zero outcome
// fails the run, naming the cycle, core and line.
func (p *Power) AcceptSpec(local *htm.TxState, pic coherence.PiC) htm.SpecOutcome {
	return htm.SpecOutcome{}
}

// ValidationCheck never runs: PowerTM has no VSB. Its causeless abort
// fails the run, naming the cycle, core and line.
func (p *Power) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	return htm.ValidationAbort, htm.CauseNone
}

// PCHATS combines CHATS with PowerTM (Section VI-B): power transactions
// are exclusively producers, sit above every chain (PiCPower), and
// conflicts are systematically resolved in their favor; everything else
// follows the CHATS rules.
type PCHATS struct {
	traits htm.Traits
}

// NewPCHATS builds PCHATS with Table II's configuration: 1 retry,
// 4 VSB entries, 50-cycle validation, Rrestrict/W forwarding.
func NewPCHATS() *PCHATS {
	return &PCHATS{traits: htm.Traits{
		Retries:            1,
		UsesVSB:            true,
		VSBSize:            4,
		ValidationInterval: 50,
		UsesPower:          true,
		PowerAfterAborts:   2,
		ForwardMode:        htm.ForwardRrestrictW,
	}}
}

// NewPCHATSWith builds a PCHATS variant.
func NewPCHATSWith(t htm.Traits) *PCHATS {
	t.UsesVSB = true
	t.UsesPower = true
	if t.PowerAfterAborts == 0 {
		t.PowerAfterAborts = 2
	}
	return &PCHATS{traits: t}
}

func (p *PCHATS) Name() string       { return "PCHATS" }
func (p *PCHATS) Traits() htm.Traits { return p.traits }

// DecideProbe: a power requester always wins; a power responder forwards
// (it is always a producer) or nacks when the block is ineligible;
// otherwise the CHATS PiC rules apply.
func (p *PCHATS) DecideProbe(local *htm.TxState, pc htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	if pc.Req.Power {
		return htm.DecideAbort, coherence.PiCNone
	}
	if local.Power {
		if !forwardEligible(p.traits.ForwardMode, pc) {
			return htm.DecideNack, coherence.PiCNone
		}
		return htm.DecideSpec, coherence.PiCPower
	}
	if !forwardEligible(p.traits.ForwardMode, pc) {
		return htm.DecideAbort, coherence.PiCNone
	}
	return chatsDecide(local, pc.Req.PiC)
}

// AcceptSpec: power transactions never consume — they retry the request
// instead (the responder, seeing a power requester, will then abort).
// Everyone else follows the CHATS consumer rules.
func (p *PCHATS) AcceptSpec(local *htm.TxState, pic coherence.PiC) htm.SpecOutcome {
	if local.Power {
		return htm.SpecOutcome{Retry: true}
	}
	return chatsAccept(local, pic)
}

// ValidationCheck is chatsValidate.
func (p *PCHATS) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	return chatsValidate(local, isSpec, pic, match)
}
