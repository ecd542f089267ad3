package difftest_test

import (
	"fmt"
	"sync"
	"testing"

	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/randprog"
	"chats/internal/runstore"
)

// The full differential oracle stack (invariant checker, accounting,
// commit-order replay, commutative cross-check) over every fallback
// path and the adaptive contention manager: the new code must not
// introduce a single serializability or accounting violation the seed
// configuration would not have.

// fallbackKnobs enumerates the knob combinations the oracle sweeps: the
// three fallback paths, the backoff variants and the adaptive manager.
// Retries is forced down so contended blocks actually reach the
// fallback path under the tiny fuzz programs.
var fallbackKnobs = []struct {
	name     string
	fallback string
	cm       string
	backoff  string
}{
	{"lock", "lock", "", ""},
	{"stm", "stm", "", ""},
	{"stm-small-table", "stm:locks=16", "", ""},
	{"elide", "elide:budget=2", "", ""},
	{"lock-linear", "lock", "", "linear:cap=4096"},
	{"stm-jitter", "stm", "", "jitter"},
	{"lock-adaptive", "lock", "adaptive", ""},
	{"stm-adaptive-hot", "stm", "adaptive:window=8,spec=0.5,hotline=4", ""},
	{"elide-adaptive", "elide", "adaptive:fallbackafter=3", ""},
}

func knobConfig(t *testing.T, fallback, cm, backoff string) machine.Config {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.CycleLimit = 200_000_000
	var err error
	if fallback != "" {
		if cfg.Fallback, err = machine.ParseFallback(fallback); err != nil {
			t.Fatal(err)
		}
	}
	if cm != "" {
		if cfg.CM, err = htm.ParseCM(cm); err != nil {
			t.Fatal(err)
		}
	}
	if backoff != "" {
		if cfg.Backoff, err = machine.ParseBackoff(backoff); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// lowRetryWrap forces every system's retry budget down so the tiny fuzz
// programs exercise the fallback path, not just hardware commits.
func lowRetryWrap(k core.Kind, p htm.Policy) htm.Policy {
	t := p.Traits()
	t.Retries = 1
	np, err := core.NewWith(k, t)
	if err != nil {
		panic(err)
	}
	return np
}

// TestFallbackPathsPassOracle fuzzes a small batch per knob combination
// through the full oracle stack on all five systems.
func TestFallbackPathsPassOracle(t *testing.T) {
	for _, k := range fallbackKnobs {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			cfg := knobConfig(t, k.fallback, k.cm, k.backoff)
			g := randprog.Preset(0)
			g.AddFrac = 0.5
			rep := difftest.Fuzz(difftest.FuzzOptions{
				Start: 7000,
				N:     6,
				Gen:   g,
				Check: difftest.Options{
					Machine: &cfg,
					Wrap:    lowRetryWrap,
				},
				Jobs: 2,
			})
			for _, f := range rep.Failures {
				t.Errorf("seed %d: %s", f.Seed, f.Err)
			}
		})
	}
}

// TestFallbackSTMTakesSTMPath asserts the STM oracle batch above is not
// vacuous: with the retry budget forced down, at least one program must
// commit through the optimistic STM protocol.
func TestFallbackSTMTakesSTMPath(t *testing.T) {
	cfg := knobConfig(t, "stm", "", "")
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	var stmCommits, fallbacks uint64
	rep := difftest.Fuzz(difftest.FuzzOptions{
		Start: 7000,
		N:     6,
		Gen:   g,
		Check: difftest.Options{
			Machine: &cfg,
			Wrap:    lowRetryWrap,
			Record: func(r runstore.Record) {
				stmCommits += r.Counters["fallback_stm_commits"]
				fallbacks += r.Counters["fallbacks"]
			},
		},
		Jobs: 1,
	})
	if !rep.Ok() {
		t.Fatalf("oracle failures: %v", rep.Failures)
	}
	if fallbacks == 0 {
		t.Fatal("batch never reached the fallback path; the STM oracle sweep is vacuous")
	}
	if stmCommits == 0 {
		t.Fatal("batch never committed through the STM protocol")
	}
}

// TestFallbackIntraEquivalence: in-process concurrency equivalence for
// the fallback and backoff knobs — the same program must produce
// bit-identical stats and memory alone and as two concurrent copies.
func TestFallbackIntraEquivalence(t *testing.T) {
	knobs := []struct {
		name     string
		fallback string
		backoff  string
	}{
		{"stm", "stm", ""},
		{"elide", "elide:budget=2", ""},
		{"lock-linear", "lock", "linear:cap=4096"},
		{"stm-jitter", "stm:locks=32", "jitter"},
	}
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	kinds := oracleSystems()
	for i, k := range knobs {
		seed := uint64(8100 + i)
		p := randprog.Generate(seed, g)
		kind := kinds[i%len(kinds)]
		k := k
		t.Run(fmt.Sprintf("%s/seed%d/%s", k.name, seed, kind), func(t *testing.T) {
			t.Parallel()
			cfg := knobConfig(t, k.fallback, "", k.backoff)
			ref, refImg, err := runProgram(p, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, imgs, errs := runConcurrently(p, kind, []machine.Config{cfg, cfg})
			for i := range stats {
				if errs[i] != nil {
					t.Fatalf("concurrent copy %d: %v", i, errs[i])
				}
				sameRun(t, fmt.Sprintf("concurrent copy %d", i), ref, refImg, stats[i], imgs[i])
			}
		})
	}
}

// TestRandomKnobFuzz mirrors the CI step: a batch of programs each
// checked under a seed-derived random (fallback, cm, backoff) triple,
// once alone (intra1) and as four concurrent checks in this process
// (intra4) — the knob space itself is fuzzed (the oracle re-runs and
// compares internally via the replay; here the point is that no
// combination crashes or breaks an oracle, alone or side by side).
func TestRandomKnobFuzz(t *testing.T) {
	fallbacks := []string{"lock", "stm", "stm:locks=32", "elide", "elide:budget=1,refill=2"}
	cms := []string{"", "adaptive", "adaptive:window=4,spec=0.75", "adaptive:hotline=3"}
	backoffs := []string{"", "linear", "jitter", "exp:cap=1024"}
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	const n = 10
	for i := 0; i < n; i++ {
		seed := uint64(9200 + i)
		// Seed-derived knob pick: reproducible from the test log alone.
		fb := fallbacks[int(seed)%len(fallbacks)]
		cm := cms[int(seed/7)%len(cms)]
		bo := backoffs[int(seed/3)%len(backoffs)]
		for _, intra := range []int{1, 4} {
			i, intra := i, intra
			t.Run(fmt.Sprintf("seed%d/fb=%s,cm=%s,bo=%s/intra%d", seed, fb, cm, bo, intra), func(t *testing.T) {
				t.Parallel()
				cfg := knobConfig(t, fb, cm, bo)
				p := randprog.Generate(uint64(9200+i), g)
				errs := make([]error, intra)
				var wg sync.WaitGroup
				for c := range errs {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						cfg := cfg
						errs[c] = difftest.Check(p, difftest.Options{Machine: &cfg, Wrap: lowRetryWrap})
					}(c)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}
