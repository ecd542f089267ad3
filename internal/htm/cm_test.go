package htm

import (
	"testing"

	"chats/internal/mem"
	"chats/internal/sim"
)

func TestCMDecideWindow(t *testing.T) {
	cm := NewAdaptiveCM(CMConfig{Kind: CMAdaptive, Window: 4, SpecFrac: 0.5, FallbackAfter: 3}, 2, sim.NewRand(1))

	// Empty window: abort fraction 0 <= 0.5, speculate.
	if act := cm.Decide(0); act != CMSpeculate {
		t.Fatalf("empty window: got %s, want spec", act)
	}
	// One abort in a window of one: fraction 1 > 0.5, wait.
	cm.NoteAbort(0)
	if act := cm.Decide(0); act != CMWait {
		t.Fatalf("1/1 aborts: got %s, want wait", act)
	}
	// Commit resets the streak and dilutes the fraction to 1/2.
	cm.NoteCommit(0)
	cm.NoteCommit(0)
	// Window now [abort commit commit]: 1/3 <= 0.5, speculate.
	if act := cm.Decide(0); act != CMSpeculate {
		t.Fatalf("1/3 aborts: got %s, want spec", act)
	}
	// Three consecutive aborts reach FallbackAfter.
	cm.NoteAbort(0)
	cm.NoteAbort(0)
	if act := cm.Decide(0); act == CMFallback {
		t.Fatal("fallback after only 2 consecutive aborts")
	}
	cm.NoteAbort(0)
	if act := cm.Decide(0); act != CMFallback {
		t.Fatalf("3 consecutive aborts: got %s, want fallback", act)
	}
	// Core 1's state is independent.
	if act := cm.Decide(1); act != CMSpeculate {
		t.Fatalf("untouched core: got %s, want spec", act)
	}
}

func TestCMWindowSlides(t *testing.T) {
	cm := NewAdaptiveCM(CMConfig{Kind: CMAdaptive, Window: 4}, 1, sim.NewRand(1))
	// Fill the window with aborts, then push them out with commits: the
	// old outcomes must leave the fraction.
	for i := 0; i < 4; i++ {
		cm.NoteAbort(0)
	}
	if f := cm.abortFrac(0); f != 1 {
		t.Fatalf("full abort window: frac %v, want 1", f)
	}
	for i := 0; i < 4; i++ {
		cm.NoteCommit(0)
	}
	if f := cm.abortFrac(0); f != 0 {
		t.Fatalf("aborts should have slid out: frac %v, want 0", f)
	}
}

func TestCMHotLine(t *testing.T) {
	cfg := CMConfig{Kind: CMAdaptive, HotLine: 3}
	cm := NewAdaptiveCM(cfg, 1, sim.NewRand(1))
	line := mem.Addr(0x1000)
	other := mem.Addr(0x2000)

	if cm.OverrideNack(line) {
		t.Fatal("cold line nacked")
	}
	cm.NoteLineAbort(line)
	cm.NoteLineAbort(line)
	if cm.OverrideNack(line) {
		t.Fatal("line nacked below threshold")
	}
	cm.NoteLineAbort(line)
	if !cm.OverrideNack(line) {
		t.Fatal("hot line not nacked at threshold")
	}
	if cm.OverrideNack(other) {
		t.Fatal("unrelated line nacked")
	}
	if hot := cm.HotLines(); len(hot) != 1 || hot[0] != line {
		t.Fatalf("HotLines = %v, want [%v]", hot, line)
	}

	// Decay halves heat machine-wide; 3/2 = 1 drops below the threshold.
	cm.decay()
	if cm.OverrideNack(line) {
		t.Fatal("line still hot after decay")
	}
	// A second decay drops the entry entirely.
	cm.decay()
	if len(cm.heat) != 0 {
		t.Fatalf("heat table not emptied: %v", cm.heat)
	}
}

func TestCMHotLineDisabled(t *testing.T) {
	cm := NewAdaptiveCM(CMConfig{Kind: CMAdaptive}, 1, sim.NewRand(1))
	for i := 0; i < 100; i++ {
		cm.NoteLineAbort(mem.Addr(0x40))
	}
	if cm.OverrideNack(mem.Addr(0x40)) {
		t.Fatal("hotline=0 must disable the override")
	}
	if len(cm.heat) != 0 {
		t.Fatal("hotline=0 must not populate the heat table")
	}
}

func TestCMWaitDelayCap(t *testing.T) {
	cfg := CMConfig{Kind: CMAdaptive, WaitBase: 100, WaitCap: 250}
	cm := NewAdaptiveCM(cfg, 1, sim.NewRand(7))
	// Build a long consecutive-abort streak: the shifted delay must stay
	// at the cap, plus jitter in [0, WaitBase].
	for i := 0; i < 10; i++ {
		cm.NoteAbort(0)
	}
	for i := 0; i < 50; i++ {
		d := cm.WaitDelay(0)
		if d < 250 || d > 250+100 {
			t.Fatalf("capped delay %d outside [250, 350]", d)
		}
	}
	// Fresh streak: base delay, pre-shift.
	cm.NoteCommit(0)
	if d := cm.WaitDelay(0); d < 100 || d > 200 {
		t.Fatalf("base delay %d outside [100, 200]", d)
	}
}

func TestCMWaitDelayDeterministic(t *testing.T) {
	mk := func() *AdaptiveCM {
		return NewAdaptiveCM(CMConfig{Kind: CMAdaptive}, 1, sim.NewRand(42))
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			a.NoteCommit(0)
			b.NoteCommit(0)
		} else {
			a.NoteAbort(0)
			b.NoteAbort(0)
		}
		if da, db := a.WaitDelay(0), b.WaitDelay(0); da != db {
			t.Fatalf("draw %d: %d != %d", i, da, db)
		}
	}
}

func TestParseCMEdges(t *testing.T) {
	// Empty spec is the fixed manager.
	if c, err := ParseCM(""); err != nil || c.Kind != CMFixed {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	// Whitespace is trimmed.
	if c, err := ParseCM("  adaptive  "); err != nil || c.Kind != CMAdaptive {
		t.Fatalf("padded spec: %+v, %v", c, err)
	}
	// Out-of-range values are rejected at parse time via Validate.
	for _, bad := range []string{
		"adaptive:window=-1", "adaptive:window=65", "adaptive:spec=-0.1",
		"adaptive:fallbackafter=-1", "adaptive:hotline=-1",
		"adaptive:wait=100,cap=50", "adaptive:wait", "adaptive:wait=",
	} {
		if _, err := ParseCM(bad); err == nil {
			t.Errorf("ParseCM(%q) accepted", bad)
		}
	}
	// A defaults-only adaptive spec prints canonically.
	c, err := ParseCM("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if s := c.String(); s != "adaptive" {
		t.Fatalf("canonical adaptive = %q", s)
	}
}
