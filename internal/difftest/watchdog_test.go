package difftest_test

import (
	"fmt"
	"testing"

	"chats/internal/core"
	"chats/internal/randprog"
)

// Watchdog equivalence over random programs: the livelock watchdog and
// the attempt bound only observe a run. Arming them records every
// transactional event into the diagnostic ring and keeps a watchdog
// tick pending in the engine, yet every program must reproduce the
// unarmed run bit-for-bit — the full comparable RunStats (so the
// pending tick must not stretch the cycle count) and the final shared +
// private memory image.
// The test names predate this subject: they once swept directory bank
// counts, a partition that no longer exists.

// checkWatchdog runs p unarmed, then with the watchdog period and the
// attempt bound far above anything the program reaches (the programs
// run a few thousand cycles at most, and one without a commit for a
// whole period would trip the watchdog), and fails on any divergence.
func checkWatchdog(t *testing.T, p *randprog.Program, kind core.Kind) {
	t.Helper()
	ref, refImg := runLone(t, p, kind)
	cfg := oracleConfig()
	cfg.WatchdogCycles = 1_000_000
	cfg.MaxAttempts = 1 << 30
	st, img, err := runProgram(p, kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "armed watchdog", ref, refImg, st, img)
}

// TestBankCorpusEquivalence replays every committed corpus program on
// the oracle systems, unarmed and armed.
func TestBankCorpusEquivalence(t *testing.T) {
	for name, p := range loadCorpus(t) {
		for _, kind := range oracleSystems() {
			p, kind := p, kind
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				checkWatchdog(t, p, kind)
			})
		}
	}
}

// TestBankFuzzEquivalence does the same over a fresh generated batch —
// fixed seeds distinct from the other oracle batches, with blind stores
// mixed in for order-sensitive coverage.
func TestBankFuzzEquivalence(t *testing.T) {
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	kinds := oracleSystems()
	const n = 12
	for i := 0; i < n; i++ {
		seed := uint64(7000 + i)
		p := randprog.Generate(seed, g)
		kind := kinds[i%len(kinds)]
		t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
			t.Parallel()
			checkWatchdog(t, p, kind)
		})
	}
}

// TestBankSerialSystems covers the power-token systems: the armed
// watchdog must be invisible to them too.
func TestBankSerialSystems(t *testing.T) {
	g := randprog.Preset(0)
	for i, kind := range []core.Kind{core.KindPower, core.KindPCHATS} {
		seed := uint64(7100 + i)
		p := randprog.Generate(seed, g)
		t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
			t.Parallel()
			checkWatchdog(t, p, kind)
		})
	}
}
