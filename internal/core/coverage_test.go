package core

import (
	"testing"

	"chats/internal/coherence"
	"chats/internal/htm"
)

// The no-forwarding systems answer speculative data with verdicts the
// machine rejects, so a protocol bug that routes it at them fails the
// run naming the cycle, core and line: the zero SpecOutcome, and an
// abort without a cause.
func TestNonForwardingSystemsRejectSpecPaths(t *testing.T) {
	for _, p := range []htm.Policy{NewBaseline(), NewPower()} {
		if out := p.AcceptSpec(activeTx(t), 10); out != (htm.SpecOutcome{}) {
			t.Errorf("%s: AcceptSpec = %+v, want the zero outcome", p.Name(), out)
		}
		for _, isSpec := range []bool{false, true} {
			if out, cause := p.ValidationCheck(activeTx(t), isSpec, 10, true); out != htm.ValidationAbort || cause != htm.CauseNone {
				t.Errorf("%s: ValidationCheck(isSpec %v) = %v, %v, want an abort without a cause", p.Name(), isSpec, out, cause)
			}
		}
	}
}

func TestLEVCValidationValueOnly(t *testing.T) {
	l := NewLEVCIdeal()
	local := activeTx(t)
	if o, cause := l.ValidationCheck(local, true, coherence.PiCNone, false); o != htm.ValidationAbort || cause != htm.CauseValidation {
		t.Fatal("mismatch must abort")
	}
	if o, _ := l.ValidationCheck(local, true, coherence.PiCNone, true); o != htm.ValidationPending {
		t.Fatal("matching spec response must stay pending")
	}
	if o, _ := l.ValidationCheck(local, false, coherence.PiCNone, true); o != htm.ValidationDone {
		t.Fatal("real matching data must validate")
	}
}

func TestPCHATSValidationMismatch(t *testing.T) {
	p := NewPCHATS()
	local := activeTx(t)
	local.PiC = 12
	if o, cause := p.ValidationCheck(local, true, 20, false); o != htm.ValidationAbort || cause != htm.CauseValidation {
		t.Fatal("mismatch must abort")
	}
	if o, _ := p.ValidationCheck(local, false, coherence.PiCNone, true); o != htm.ValidationDone {
		t.Fatal("real data must validate")
	}
	if o, cause := p.ValidationCheck(local, true, 12, true); o != htm.ValidationAbort || cause != htm.CauseCycle {
		t.Fatal("PiC cycle must abort under PCHATS too")
	}
	if o, _ := p.ValidationCheck(local, true, 20, true); o != htm.ValidationPending {
		t.Fatal("spec from above must stay pending")
	}
}

func TestPCHATSNonPowerFollowsCHATSRules(t *testing.T) {
	p := NewPCHATS()
	// A read-set block predicted to be written is ineligible: a plain
	// (non-power) responder resolves requester-wins.
	pc := htm.ProbeContext{
		Kind:           coherence.FwdGetX,
		Req:            coherence.ReqInfo{IsTx: true, PiC: coherence.PiCNone},
		PredictedWrite: true,
		Forwardable:    true,
	}
	if dec, _ := p.DecideProbe(activeTx(t), pc); dec != htm.DecideAbort {
		t.Fatal("non-power responder must abort on ineligible block")
	}
	// Eligible write-set block: CHATS forwarding applies.
	local := activeTx(t)
	dec, pic := p.DecideProbe(local, wsProbe(coherence.PiCNone))
	if dec != htm.DecideSpec || pic != coherence.PiCInit {
		t.Fatalf("dec=%v pic=%d", dec, pic)
	}
}

func TestVariantConstructorDefaults(t *testing.T) {
	// NewNaiveRSWith fills the naive budget when omitted.
	n := NewNaiveRSWith(htm.Traits{Retries: 2, VSBSize: 4, ValidationInterval: 50})
	if n.Traits().NaiveBudget != 16 {
		t.Fatalf("naive budget = %d", n.Traits().NaiveBudget)
	}
	// Power/PCHATS variants fill PowerAfterAborts.
	if NewPowerWith(htm.Traits{Retries: 2}).Traits().PowerAfterAborts != 2 {
		t.Fatal("power trigger default missing")
	}
	if NewPCHATSWith(htm.Traits{Retries: 1, VSBSize: 4}).Traits().PowerAfterAborts != 2 {
		t.Fatal("pchats trigger default missing")
	}
	if !NewPCHATSWith(htm.Traits{Retries: 1}).Traits().UsesPower {
		t.Fatal("pchats must use power")
	}
	if NewPowerWith(htm.Traits{UsesVSB: true}).Traits().UsesVSB {
		t.Fatal("power must not use a VSB")
	}
}

func TestChatsAcceptPowerAndInvalidPiC(t *testing.T) {
	c := NewCHATS()
	// PiCPower consumption leaves the PiC alone even under plain CHATS
	// (arises when PCHATS machinery shares the consumer path).
	local := activeTx(t)
	out := c.AcceptSpec(local, coherence.PiCPower)
	if !out.Accept || local.PiC != coherence.PiCNone || !local.Cons {
		t.Fatalf("power consume: %+v PiC=%d", out, local.PiC)
	}
	// No consistent run delivers a malformed PiC, nor PiC 0 to an unset
	// consumer (a producer at position 0 aborts rather than forward), so
	// both panic, naming the PiC.
	wantPanic := func(want string, pic coherence.PiC) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); msg != want {
				t.Errorf("AcceptSpec(%d) panic = %q, want %q", pic, msg, want)
			}
		}()
		c.AcceptSpec(activeTx(t), pic)
	}
	wantPanic("core: SpecResp carries invalid PiC -7", -7)
	wantPanic("core: unchained consumer got a SpecResp at PiC 0, below any position to join", 0)
}

func TestNaiveDecideInvNotForwardable(t *testing.T) {
	n := NewNaiveRS()
	pc := htm.ProbeContext{
		Kind: coherence.InvProbe,
		Req:  coherence.ReqInfo{IsTx: true},
		// Forwardable false: invalidations cannot carry data.
	}
	if dec, _ := n.DecideProbe(activeTx(t), pc); dec != htm.DecideAbort {
		t.Fatal("naive forwarded an invalidation")
	}
}
