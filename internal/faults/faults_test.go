package faults

import (
	"strings"
	"testing"

	"chats/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "spurious:p=0.01;vsbfull:p=0.5;valfail:p=0.02;jitter:p=0.2,max=16;nack:p=0.05;powerdeny:p=0.3;lockburst:p=0.1,cycles=200"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Spurious != 0.01 || p.VSBFull != 0.5 || p.ValFail != 0.02 ||
		p.Jitter != 0.2 || p.JitterMax != 16 || p.Nack != 0.05 ||
		p.PowerDeny != 0.3 || p.LockBurst != 0.1 || p.LockBurstCycles != 200 {
		t.Fatalf("parsed %+v", p)
	}
	if !p.Enabled() {
		t.Fatal("plan should be enabled")
	}
	// The canonical rendering parses back to the same plan.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2 != p {
		t.Fatalf("round trip: %+v != %+v", p2, p)
	}
}

func TestParseEmptyAndDefaults(t *testing.T) {
	p, err := Parse("  ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() || p.String() != "" {
		t.Fatalf("empty spec parsed to %+v", p)
	}
	p, err = Parse("jitter:p=1;lockburst:p=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.JitterMax != defaultJitterMax || p.LockBurstCycles != defaultLockBurstCycles {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"frob:p=0.5", "valid: spurious, vsbfull, valfail, jitter, nack, powerdeny, lockburst"},
		{"spurious:p=1.5", "[0,1]"},
		{"spurious:p=x", "[0,1]"},
		{"spurious", "missing p="},
		{"jitter:p=0.1,max=0", "positive cycle count"},
		{"spurious:p=0.1,zap=2", "unknown option"},
		{"spurious:p", "key=value"},
		{"nack:p=0.1,bank=3", "unknown option(s) bank"},
		{"lockburst:p=0.1,cycles=9,bank=0", "unknown option(s) bank"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan, err := Parse("spurious:p=0.1;jitter:p=0.3,max=8;nack:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]bool, []uint64, Stats) {
		in := NewInjector(plan, sim.NewRand(42))
		var bs []bool
		var ds []uint64
		for i := 0; i < 1000; i++ {
			bs = append(bs, in.SpuriousAbort(), in.ForceNack())
			ds = append(ds, in.JitterDelay())
		}
		return bs, ds, in.Stats
	}
	b1, d1, s1 := run()
	b2, d2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("jitter %d diverged", i)
		}
	}
	if s1.Total() == 0 {
		t.Fatal("expected some injections at these rates")
	}
}

func TestDisabledKindsDoNotTouchPRNG(t *testing.T) {
	// Interleaving calls to disabled kinds must not change the schedule
	// of enabled ones: disabled kinds skip the PRNG entirely.
	plan := Plan{Spurious: 0.5}
	a := NewInjector(plan, sim.NewRand(7))
	b := NewInjector(plan, sim.NewRand(7))
	for i := 0; i < 200; i++ {
		b.ForceNack() // disabled; must be a no-op on the stream
		b.VSBFull()
		if a.SpuriousAbort() != b.SpuriousAbort() {
			t.Fatalf("disabled draws perturbed the schedule at %d", i)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	plan := Plan{Jitter: 1, JitterMax: 4}
	in := NewInjector(plan, sim.NewRand(9))
	for i := 0; i < 500; i++ {
		d := in.JitterDelay()
		if d < 1 || d > 4 {
			t.Fatalf("jitter %d outside [1,4]", d)
		}
	}
}
