package core

import (
	"testing"

	"chats/internal/coherence"
	"chats/internal/htm"
)

// The exhaustive table over the producer-side PiC update rules of
// Fig. 3 / Section IV-C, including both saturation edges of the 5-bit
// register (PiCMax = 30, one encoding reserved). Each case states the
// full before/after contract: decision, the PiC the SpecResp carries,
// and the producer's register afterwards.
func TestChatsDecideTable(t *testing.T) {
	const none = coherence.PiCNone
	cases := []struct {
		name      string
		local     coherence.PiC
		cons      bool
		remote    coherence.PiC
		decision  htm.ProbeDecision
		sent      coherence.PiC // meaningful only for DecideSpec
		localPost coherence.PiC
	}{
		// Fig. 3A: neither chained — producer takes the middle position.
		{"A/both-unchained", none, false, none, htm.DecideSpec, coherence.PiCInit, coherence.PiCInit},
		// Fig. 3C: unchained producer joins one above the requester.
		{"C/join-above-0", none, false, 0, htm.DecideSpec, 1, 1},
		{"C/join-above-mid", none, false, 17, htm.DecideSpec, 18, 18},
		{"C/join-above-29", none, false, coherence.PiCMax - 1, htm.DecideSpec, coherence.PiCMax, coherence.PiCMax},
		// Saturation: the requester already holds the top position; the
		// producer cannot encode PiCMax+1 and must fall back to
		// requester-wins.
		{"C/overflow-at-max", none, false, coherence.PiCMax, htm.DecideAbort, none, none},
		// Fig. 3B: chained producer forwards its position; the requester
		// will join below. At position 0 the requester would underflow.
		{"B/requester-joins-below", 7, false, none, htm.DecideSpec, 7, 7},
		{"B/at-top", coherence.PiCMax, false, none, htm.DecideSpec, coherence.PiCMax, coherence.PiCMax},
		{"B/underflow-at-0", 0, false, none, htm.DecideAbort, none, 0},
		// Requester already below the producer: forward unchanged.
		{"below/forwards", 9, true, 3, htm.DecideSpec, 9, 9},
		{"below/adjacent", 9, false, 8, htm.DecideSpec, 9, 9},
		// Fig. 3D/E: requester at or above a consuming producer — abort.
		{"DE/equal-cons", 5, true, 5, htm.DecideAbort, none, 5},
		{"DE/above-cons", 5, true, 11, htm.DecideAbort, none, 5},
		// Fig. 3F: with Cons clear the producer may re-chain above.
		{"F/raises-past-equal", 5, false, 5, htm.DecideSpec, 6, 6},
		{"F/raises-past-above", 5, false, 20, htm.DecideSpec, 21, 21},
		{"F/raise-to-max", 5, false, coherence.PiCMax - 1, htm.DecideSpec, coherence.PiCMax, coherence.PiCMax},
		// Saturation again on the re-chain path.
		{"F/overflow-at-max", 5, false, coherence.PiCMax, htm.DecideAbort, none, 5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tx := activeTx(t)
			tx.PiC = tc.local
			tx.Cons = tc.cons
			dec, sent := chatsDecide(tx, tc.remote)
			if dec != tc.decision {
				t.Fatalf("decision = %v, want %v", dec, tc.decision)
			}
			if dec == htm.DecideSpec && sent != tc.sent {
				t.Fatalf("sent PiC = %v, want %v", sent, tc.sent)
			}
			if tx.PiC != tc.localPost {
				t.Fatalf("local PiC after = %v, want %v", tx.PiC, tc.localPost)
			}
			if tx.Cons != tc.cons {
				t.Fatalf("producer side must not change Cons (got %v)", tx.Cons)
			}
		})
	}
}

// Consumer-side table (chatsAccept): how an arriving SpecResp moves the
// consumer's PiC/Cons, including the cycle races. An invalid PiC, and
// PiC 0 at an unchained consumer, reach no consistent run (every
// forward carries PiCPower or a PiC of at least 1), so they panic,
// naming the PiC.
func TestChatsAcceptTable(t *testing.T) {
	const none = coherence.PiCNone
	cases := []struct {
		name      string
		local     coherence.PiC
		pic       coherence.PiC // carried by the SpecResp
		accept    bool
		cause     htm.AbortCause
		localPost coherence.PiC
		consPost  bool
		panics    string // the expected panic; the fields above are then unused
	}{
		// Power producer: consume without touching the PiC.
		{"power/unchained", none, coherence.PiCPower, true, htm.CauseNone, none, true, ""},
		{"power/chained", 12, coherence.PiCPower, true, htm.CauseNone, 12, true, ""},
		// A producer never sends an invalid PiC.
		{"invalid/none", none, none, false, 0, 0, false, "core: SpecResp carries invalid PiC -1"},
		{"invalid/out-of-range", none, coherence.PiCMax + 1, false, 0, 0, false, "core: SpecResp carries invalid PiC 31"},
		// Unchained consumer joins one below the producer.
		{"join-below/mid", none, 16, true, htm.CauseNone, 15, true, ""},
		{"join-below/top", none, coherence.PiCMax, true, htm.CauseNone, coherence.PiCMax - 1, true, ""},
		// Position -1 does not exist, and no producer forwards at PiC 0.
		{"join-below/underflow-at-0", none, 0, false, 0, 0, false,
			"core: unchained consumer got a SpecResp at PiC 0, below any position to join"},
		// Chained consumer: producer must sit strictly above.
		{"chained/producer-above", 4, 10, true, htm.CauseNone, 4, true, ""},
		{"chained/producer-equal", 4, 4, false, htm.CauseCycle, 4, false, ""},
		{"chained/producer-below", 4, 3, false, htm.CauseCycle, 4, false, ""},
		{"chained/adjacent-above", 4, 5, true, htm.CauseNone, 4, true, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tx := activeTx(t)
			tx.PiC = tc.local
			if tc.panics != "" {
				defer func() {
					if msg, _ := recover().(string); msg != tc.panics {
						t.Fatalf("panic = %q, want %q", msg, tc.panics)
					}
				}()
			}
			out := chatsAccept(tx, tc.pic)
			if tc.panics != "" {
				t.Fatalf("returned %+v, want panic %q", out, tc.panics)
			}
			if out.Accept != tc.accept {
				t.Fatalf("accept = %v, want %v (cause %v)", out.Accept, tc.accept, out.Cause)
			}
			if !tc.accept && out.Cause != tc.cause {
				t.Fatalf("cause = %v, want %v", out.Cause, tc.cause)
			}
			if tx.PiC != tc.localPost {
				t.Fatalf("PiC after = %v, want %v", tx.PiC, tc.localPost)
			}
			if tx.Cons != tc.consPost {
				t.Fatalf("Cons after = %v, want %v", tx.Cons, tc.consPost)
			}
		})
	}
}

// Validation-response table (Section IV-B): value mismatch always
// aborts; clean non-speculative responses finish the line; speculative
// ones stay pending unless the carried PiC exposes a cycle race.
func TestChatsValidationTable(t *testing.T) {
	const none = coherence.PiCNone
	c := NewCHATS()
	cases := []struct {
		name    string
		local   coherence.PiC
		isSpec  bool
		pic     coherence.PiC
		match   bool
		outcome htm.ValidationOutcome
		cause   htm.AbortCause
	}{
		{"mismatch/spec", 5, true, 10, false, htm.ValidationAbort, htm.CauseValidation},
		{"mismatch/nonspec", none, false, none, false, htm.ValidationAbort, htm.CauseValidation},
		{"clean/nonspec", 5, false, none, true, htm.ValidationDone, htm.CauseNone},
		{"clean/spec-power", 5, true, coherence.PiCPower, true, htm.ValidationPending, htm.CauseNone},
		{"clean/spec-above", 5, true, 9, true, htm.ValidationPending, htm.CauseNone},
		{"clean/spec-unchained-local", none, true, 3, true, htm.ValidationPending, htm.CauseNone},
		{"race/spec-equal", 5, true, 5, true, htm.ValidationAbort, htm.CauseCycle},
		{"race/spec-below", 5, true, 2, true, htm.ValidationAbort, htm.CauseCycle},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tx := activeTx(t)
			tx.PiC = tc.local
			out, cause := c.ValidationCheck(tx, tc.isSpec, tc.pic, tc.match)
			if out != tc.outcome || cause != tc.cause {
				t.Fatalf("= %v/%v, want %v/%v", out, cause, tc.outcome, tc.cause)
			}
		})
	}
}

// The PiC register is 5 bits with one encoding reserved: positions
// 0..30 are valid, PiCInit sits mid-range, and a chain can absorb at
// most PiCMax-PiCInit join-above steps before saturating.
func TestPiCRegisterEncoding(t *testing.T) {
	if coherence.PiCMax != 30 {
		t.Fatalf("PiCMax = %d, want 30 (5-bit register, one value reserved)", coherence.PiCMax)
	}
	if coherence.PiCInit != 15 {
		t.Fatalf("PiCInit = %d, want 15", coherence.PiCInit)
	}
	for p, want := range map[coherence.PiC]bool{
		coherence.PiCNone: false, coherence.PiCPower: false,
		0: true, coherence.PiCInit: true, coherence.PiCMax: true,
		coherence.PiCMax + 1: false, 63: false,
	} {
		if p.Valid() != want {
			t.Errorf("PiC(%d).Valid() = %v, want %v", p, p.Valid(), want)
		}
	}

	// Growing a chain one join-above at a time: starting from a fresh
	// A-rule producer at PiCInit, successive unchained producers can
	// stack up to PiCMax and the next join must fall back to abort.
	top := coherence.PiCInit
	joins := 0
	for {
		tx := activeTx(t)
		dec, sent := chatsDecide(tx, top)
		if dec == htm.DecideAbort {
			break
		}
		if sent != top+1 {
			t.Fatalf("join above %d sent %d, want %d", top, sent, top+1)
		}
		top = sent
		joins++
	}
	if top != coherence.PiCMax {
		t.Fatalf("chain saturated at %d, want %d", top, coherence.PiCMax)
	}
	if want := int(coherence.PiCMax - coherence.PiCInit); joins != want {
		t.Fatalf("absorbed %d joins above PiCInit, want %d", joins, want)
	}
}
