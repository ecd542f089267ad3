package machine_test

import (
	"errors"
	"sync"
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/testutil"
)

// ---------- spec round-trips and validation (satellite: knob coverage) ----------

func TestFallbackSpecRoundTrip(t *testing.T) {
	good := []string{"lock", "stm", "stm:locks=128", "elide", "elide:budget=8,refill=2", "elide:budget=8"}
	for _, spec := range good {
		c, err := machine.ParseFallback(spec)
		if err != nil {
			t.Fatalf("ParseFallback(%q): %v", spec, err)
		}
		back, err := machine.ParseFallback(c.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", c.String(), spec, err)
		}
		if back != c {
			t.Errorf("round trip %q: %+v -> %q -> %+v", spec, c, c.String(), back)
		}
	}
	bad := []string{"bogus", "lock:x=1", "stm:budget=2", "elide:locks=4", "stm:locks=abc", "stm:locks"}
	for _, spec := range bad {
		if _, err := machine.ParseFallback(spec); err == nil {
			t.Errorf("ParseFallback(%q) accepted", spec)
		}
	}
	if c, _ := machine.ParseFallback("lock"); c != (machine.FallbackConfig{}) {
		t.Errorf("lock spec is not the zero config: %+v", c)
	}
}

func TestBackoffSpecRoundTrip(t *testing.T) {
	good := []string{"exp", "linear", "linear:cap=4096", "jitter", "jitter:cap=1024", "exp:cap=65536"}
	for _, spec := range good {
		c, err := machine.ParseBackoff(spec)
		if err != nil {
			t.Fatalf("ParseBackoff(%q): %v", spec, err)
		}
		back, err := machine.ParseBackoff(c.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", c.String(), err)
		}
		if back != c {
			t.Errorf("round trip %q: %+v -> %q -> %+v", spec, c, c.String(), back)
		}
	}
	for _, spec := range []string{"bogus", "exp:x=1", "linear:cap=zz"} {
		if _, err := machine.ParseBackoff(spec); err == nil {
			t.Errorf("ParseBackoff(%q) accepted", spec)
		}
	}
}

func TestCMSpecRoundTrip(t *testing.T) {
	good := []string{"fixed", "adaptive", "adaptive:window=8,spec=0.5,wait=128,cap=4096,fallbackafter=4,hotline=3"}
	for _, spec := range good {
		c, err := htm.ParseCM(spec)
		if err != nil {
			t.Fatalf("ParseCM(%q): %v", spec, err)
		}
		back, err := htm.ParseCM(c.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", c.String(), err)
		}
		if back != c {
			t.Errorf("round trip %q: %+v -> %q -> %+v", spec, c, c.String(), back)
		}
	}
	bad := []string{"bogus", "fixed:window=2", "adaptive:spec=1.5", "adaptive:window=100", "adaptive:zzz=1"}
	for _, spec := range bad {
		if _, err := htm.ParseCM(spec); err == nil {
			t.Errorf("ParseCM(%q) accepted", spec)
		}
	}
}

func TestConfigValidateKnobs(t *testing.T) {
	base := testutil.Config()
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*machine.Config)
	}{
		{"negative stm locks", func(c *machine.Config) { c.Fallback.Locks = -1 }},
		{"huge stm locks", func(c *machine.Config) { c.Fallback.Locks = 1 << 20 }},
		{"negative elide budget", func(c *machine.Config) { c.Fallback.Budget = -2 }},
		{"bad fallback kind", func(c *machine.Config) { c.Fallback.Kind = machine.FallbackKind(9) }},
		{"bad backoff kind", func(c *machine.Config) { c.Backoff.Kind = machine.BackoffKind(7) }},
		{"bad cm kind", func(c *machine.Config) { c.CM.Kind = htm.CMKind(5) }},
		{"cm spec frac out of range", func(c *machine.Config) { c.CM.Kind = htm.CMAdaptive; c.CM.SpecFrac = 1.5 }},
		{"cm window too wide", func(c *machine.Config) { c.CM.Kind = htm.CMAdaptive; c.CM.Window = 65 }},
		{"cm cap below base", func(c *machine.Config) { c.CM.Kind = htm.CMAdaptive; c.CM.WaitBase = 100; c.CM.WaitCap = 10 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
}

// ---------- fallback paths under load and faults ----------

// contendedPolicy builds a CHATS policy with a tiny retry budget so
// most blocks of a contended workload reach the fallback path.
func contendedPolicy() htm.Policy {
	return core.NewCHATSWith(htm.Traits{Retries: 1})
}

// runCounterFallback runs the maximal-contention counter workload on
// every core with the given fallback path and optional fault plan,
// with the invariant checker attached, and returns the stats.
func runCounterFallback(t *testing.T, fb string, plan string) machine.RunStats {
	t.Helper()
	cfg := testutil.Config()
	cfg.Cores = 8
	var err error
	cfg.Fallback, err = machine.ParseFallback(fb)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		p, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &p
	}
	m := testutil.Machine(t, cfg, contendedPolicy())
	w := &testutil.Counter{Iters: 25}
	st, err := m.Run(w)
	if err != nil {
		t.Fatalf("fallback=%s faults=%q: %v", fb, plan, err)
	}
	blocks := uint64(8 * 25)
	if st.Commits+st.Fallbacks != blocks {
		t.Errorf("fallback=%s: commits %d + fallbacks %d != blocks %d",
			fb, st.Commits, st.Fallbacks, blocks)
	}
	return st
}

func TestFallbackPathsCounter(t *testing.T) {
	for _, fb := range []string{"lock", "stm", "elide:budget=2"} {
		fb := fb
		t.Run(fb, func(t *testing.T) {
			st := runCounterFallback(t, fb, "")
			if st.Fallbacks == 0 {
				t.Errorf("%s: no fallbacks on a contended counter with Retries=1", fb)
			}
			switch {
			case fb == "stm" && st.FallbackSTMCommits == 0:
				t.Errorf("stm: no optimistic STM commits (fallbacks=%d)", st.Fallbacks)
			case fb != "stm" && st.FallbackSTMCommits != 0:
				t.Errorf("%s: unexpected STM commits %d", fb, st.FallbackSTMCommits)
			}
			if fb == "elide:budget=2" && st.FallbackElideExtends == 0 {
				t.Error("elide: budget never spent on a contended counter")
			}
			if st.Fallbacks > 0 && st.FallbackBodyCycles == 0 {
				t.Errorf("%s: fallbacks happened but FallbackBodyCycles is zero", fb)
			}
		})
	}
}

// The lockburst fault stalls the global-lock holder inside the critical
// section; every fallback path must survive it with the workload and
// accounting intact (satellite: lockburst × fallback coverage).
func TestFallbackPathsLockburst(t *testing.T) {
	const plan = "lockburst:p=0.5,cycles=300"
	for _, fb := range []string{"lock", "stm", "elide"} {
		fb := fb
		t.Run(fb, func(t *testing.T) {
			st := runCounterFallback(t, fb, plan)
			if st.Fallbacks == 0 {
				t.Fatalf("%s: no fallbacks, lockburst never exercised", fb)
			}
			if st.FaultsInjected == 0 {
				t.Errorf("%s: lockburst plan injected nothing", fb)
			}
		})
	}
}

// The STM path must overlap non-conflicting fallback bodies where the
// global lock serializes them. Bank transfers touch distinct accounts
// most of the time, so with every block forced onto the fallback path
// the STM occupancy integral must beat the lock path's.
func TestSTMFallbackOverlapsBank(t *testing.T) {
	run := func(fb string) machine.RunStats {
		cfg := testutil.Config()
		cfg.Cores = 8
		var err error
		cfg.Fallback, err = machine.ParseFallback(fb)
		if err != nil {
			t.Fatal(err)
		}
		m := testutil.Machine(t, cfg, core.NewCHATSWith(htm.Traits{Retries: 0}))
		st, err := m.Run(&testutil.Bank{Accounts: 64, Iters: 30})
		if err != nil {
			t.Fatalf("fallback=%s: %v", fb, err)
		}
		return st
	}
	lock := run("lock")
	stm := run("stm:locks=256")
	lockCC := float64(lock.FallbackBodyCycles) / float64(lock.Cycles)
	stmCC := float64(stm.FallbackBodyCycles) / float64(stm.Cycles)
	if stmCC <= lockCC {
		t.Errorf("stm fallback concurrency %.2f not above lock path %.2f", stmCC, lockCC)
	}
	if lockCC > 1.01 {
		t.Errorf("lock path fallback concurrency %.2f > 1: global lock cannot overlap", lockCC)
	}
}

// ---------- adaptive contention manager ----------

func TestAdaptiveCMDecidesOnCounter(t *testing.T) {
	cfg := testutil.Config()
	cfg.Cores = 8
	var err error
	cfg.CM, err = htm.ParseCM("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	m := testutil.Machine(t, cfg, testutil.Policy(t, core.KindCHATS))
	st, err := m.Run(&testutil.Counter{Iters: 25})
	if err != nil {
		t.Fatal(err)
	}
	if st.CMWaits+st.CMSpecs+st.CMFallbacks == 0 {
		t.Error("adaptive CM made no decisions on a contended counter")
	}
	if st.CMSpecs == 0 {
		t.Error("adaptive CM never speculated")
	}
	blocks := uint64(8 * 25)
	if st.Commits+st.Fallbacks != blocks {
		t.Errorf("commits %d + fallbacks %d != blocks %d", st.Commits, st.Fallbacks, blocks)
	}
}

// A mis-tuned adaptive CM that answers almost every abort with an
// astronomically long wait must trip the livelock watchdog instead of
// spinning to the cycle limit (satellite: watchdog under mis-tuned CM).
func TestAdaptiveCMMisTunedTripsWatchdog(t *testing.T) {
	cfg := testutil.Config()
	cfg.Cores = 8
	cfg.WatchdogCycles = 200_000
	cfg.CM = htm.CMConfig{
		Kind:          htm.CMAdaptive,
		Window:        1,       // one abort -> 100% abort rate -> wait
		WaitBase:      1 << 30, // ... for ~2^30 cycles
		WaitCap:       1 << 31,
		FallbackAfter: 1 << 30, // never rescue via fallback
	}
	m := testutil.Machine(t, cfg, testutil.Policy(t, core.KindCHATS))
	_, err := m.Run(&testutil.Counter{Iters: 25})
	var ll *machine.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want *LivelockError", err)
	}
	if ll.Core >= 0 {
		t.Errorf("got starvation diagnosis for core %d, want whole-machine livelock", ll.Core)
	}
}

// A mis-tuned adaptive CM that always speculates (and never falls
// back) must trip the per-block starvation budget, naming the core.
func TestAdaptiveCMStarvationTripsMaxAttempts(t *testing.T) {
	cfg := testutil.Config()
	cfg.Cores = 8
	cfg.MaxAttempts = 40
	cfg.CM = htm.CMConfig{
		Kind:          htm.CMAdaptive,
		SpecFrac:      1,       // retry immediately forever
		FallbackAfter: 1 << 30, // never rescue via fallback
	}
	m := testutil.Machine(t, cfg, testutil.Policy(t, core.KindCHATS))
	_, err := m.Run(&testutil.Counter{Iters: 50})
	var ll *machine.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want *LivelockError", err)
	}
	if ll.Core < 0 {
		t.Error("got whole-machine livelock, want a starvation diagnosis naming a core")
	}
	if ll.Attempt <= cfg.MaxAttempts {
		t.Errorf("starved at attempt %d, budget %d", ll.Attempt, cfg.MaxAttempts)
	}
}

// ---------- determinism ----------

// The new fallback paths and backoff variants are thread-side code over
// the ordinary rendezvous, so a run must stay bit-identical when copies
// of it run concurrently in the same process.
func TestFallbackIntraDeterminism(t *testing.T) {
	configs := []struct {
		name string
		fb   string
		bo   string
	}{
		{"stm", "stm", "exp"},
		{"elide", "elide:budget=2", "exp"},
		{"lock-linear", "lock", "linear:cap=4096"},
		{"stm-jitter", "stm:locks=32", "jitter"},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := testutil.Config()
			cfg.Cores = 8
			var err error
			if cfg.Fallback, err = machine.ParseFallback(tc.fb); err != nil {
				t.Fatal(err)
			}
			if cfg.Backoff, err = machine.ParseBackoff(tc.bo); err != nil {
				t.Fatal(err)
			}
			run := func() (machine.RunStats, error) {
				m, err := machine.New(cfg, contendedPolicy())
				if err != nil {
					return machine.RunStats{}, err
				}
				return m.Run(&testutil.Bank{Accounts: 32, Iters: 20})
			}
			ref, err := run()
			if err != nil {
				t.Fatal(err)
			}
			const copies = 3
			var (
				wg    sync.WaitGroup
				stats [copies]machine.RunStats
				errs  [copies]error
			)
			for i := 0; i < copies; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					stats[i], errs[i] = run()
				}(i)
			}
			wg.Wait()
			for i := 0; i < copies; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent copy %d: %v", i, errs[i])
				}
				if stats[i] != ref {
					t.Errorf("concurrent copy %d diverged:\nalone:      %+v\nconcurrent: %+v", i, ref, stats[i])
				}
			}
		})
	}
}
