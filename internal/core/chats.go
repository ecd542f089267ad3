// Package core implements the paper's contribution — the CHATS conflict
// resolution policy built on the Position-in-Chain (PiC) rules of
// Section IV-C / Fig. 3 — together with every system it is evaluated
// against in Section VI-B: the requester-wins baseline, the naive
// requester-speculates design, PowerTM, PCHATS and LEVC-BE-Idealized.
//
// A policy is pure decision logic: the protocol machinery (probes, VSB
// plumbing, validation timers, retries, the power token) lives in package
// machine and calls into the policy at the three decision points of the
// design: responding to a conflicting probe, accepting a SpecResp, and
// checking a validation response.
package core

import (
	"fmt"

	"chats/internal/coherence"
	"chats/internal/htm"
)

// CHATS is the CHAined TransactionS policy (Sections III and IV).
type CHATS struct {
	traits htm.Traits
}

// NewCHATS builds the CHATS policy with the Table II configuration:
// 32 retries, 4 VSB entries, 50-cycle validation period, Rrestrict/W
// forwarding. Use the fields of Traits to build sensitivity variants.
func NewCHATS() *CHATS {
	return &CHATS{traits: htm.Traits{
		Retries:            32,
		UsesVSB:            true,
		VSBSize:            4,
		ValidationInterval: 50,
		ForwardMode:        htm.ForwardRrestrictW,
	}}
}

// NewCHATSWith builds a CHATS variant with explicit knobs (used by the
// sensitivity analyses of Section VII-A).
func NewCHATSWith(t htm.Traits) *CHATS {
	t.UsesVSB = true
	return &CHATS{traits: t}
}

func (c *CHATS) Name() string       { return "CHATS" }
func (c *CHATS) Traits() htm.Traits { return c.traits }

// forwardEligible applies the Section VI-D block-eligibility gating on
// top of the mechanical Forwardable check.
func forwardEligible(mode htm.ForwardMode, pc htm.ProbeContext) bool {
	if !pc.Forwardable {
		return false
	}
	if pc.InWriteSet {
		return true
	}
	switch mode {
	case htm.ForwardRW:
		return true
	case htm.ForwardW:
		return false
	case htm.ForwardRrestrictW:
		return !pc.PredictedWrite
	}
	return false
}

// chatsDecide implements the PiC update rules (Fig. 3 and the bullet
// list of Section IV-C). It mutates local.PiC when the rules require the
// producer to take or advance a chain position, and returns the PiC the
// SpecResp must carry. A DecideAbort return means requester-wins
// resolution (including the overflow/underflow cases).
func chatsDecide(local *htm.TxState, remote coherence.PiC) (htm.ProbeDecision, coherence.PiC) {
	l := local.PiC
	switch {
	case l == coherence.PiCNone && remote == coherence.PiCNone:
		// Fig. 3A: neither chained. Producer takes the initial position.
		local.PiC = coherence.PiCInit
		return htm.DecideSpec, local.PiC
	case l == coherence.PiCNone:
		// Fig. 3C: producer joins above the requester.
		if remote+1 > coherence.PiCMax {
			return htm.DecideAbort, coherence.PiCNone // overflow
		}
		local.PiC = remote + 1
		return htm.DecideSpec, local.PiC
	case remote == coherence.PiCNone:
		// Fig. 3B: requester will join below the producer.
		if l == 0 {
			return htm.DecideAbort, coherence.PiCNone // requester would underflow
		}
		return htm.DecideSpec, l
	case remote < l:
		// Requester already sits below: forward without changes.
		return htm.DecideSpec, l
	default: // remote >= l
		// The producer would have to raise its PiC past the requester's.
		// Legal only if it has no unvalidated speculative inputs
		// (Fig. 3D/E abort; Fig. 3F allows it once Cons is clear).
		if local.Cons {
			return htm.DecideAbort, coherence.PiCNone
		}
		if remote+1 > coherence.PiCMax {
			return htm.DecideAbort, coherence.PiCNone // overflow
		}
		local.PiC = remote + 1
		return htm.DecideSpec, local.PiC
	}
}

// DecideProbe resolves a conflicting probe under CHATS.
func (c *CHATS) DecideProbe(local *htm.TxState, pc htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	if !forwardEligible(c.traits.ForwardMode, pc) {
		return htm.DecideAbort, coherence.PiCNone
	}
	return chatsDecide(local, pc.Req.PiC)
}

// chatsAccept is the consumer side shared by CHATS and PCHATS.
func chatsAccept(local *htm.TxState, pic coherence.PiC) htm.SpecOutcome {
	if pic == coherence.PiCPower {
		// Forwarded by a power transaction: consume without touching the
		// PiC (Section VI-B, PCHATS).
		local.Cons = true
		return htm.SpecOutcome{Accept: true}
	}
	// Every forward carries PiCPower or a PiC of at least 1: a producer
	// at 0 aborts rather than forward (Fig. 3B), and a response that
	// outlives its attempt is dropped as stale before it gets here.
	if !pic.Valid() {
		panic(fmt.Sprintf("core: SpecResp carries invalid PiC %d", pic))
	}
	if local.PiC == coherence.PiCNone {
		if pic == 0 {
			panic(fmt.Sprintf("core: unchained consumer got a SpecResp at PiC %d, below any position to join", pic))
		}
		local.PiC = pic - 1
		local.Cons = true
		return htm.SpecOutcome{Accept: true}
	}
	// The PiC cannot change once the transaction consumes speculative
	// data; a producer at or below our position signals a cycle race.
	if local.PiC >= pic {
		return htm.SpecOutcome{Cause: htm.CauseCycle}
	}
	local.Cons = true
	return htm.SpecOutcome{Accept: true}
}

// AcceptSpec applies the consumer-side rules on SpecResp arrival.
func (c *CHATS) AcceptSpec(local *htm.TxState, pic coherence.PiC) htm.SpecOutcome {
	return chatsAccept(local, pic)
}

// chatsValidate is the validation check shared by CHATS and PCHATS
// (Section IV-B): abort on value mismatch; abort on a PiC at or below
// ours in a speculative response (a cycle created by a race, Section
// IV-C); otherwise pending until real permissions arrive. A PiCPower
// response is exempt from the cycle check: the power producer commits
// independently.
func chatsValidate(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	if !match {
		return htm.ValidationAbort, htm.CauseValidation
	}
	if !isSpec {
		return htm.ValidationDone, htm.CauseNone
	}
	if pic == coherence.PiCPower {
		return htm.ValidationPending, htm.CauseNone
	}
	if local.PiC != coherence.PiCNone && local.PiC >= pic {
		return htm.ValidationAbort, htm.CauseCycle
	}
	return htm.ValidationPending, htm.CauseNone
}

// ValidationCheck is chatsValidate.
func (c *CHATS) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	return chatsValidate(local, isSpec, pic, match)
}
