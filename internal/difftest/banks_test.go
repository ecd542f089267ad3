package difftest_test

import (
	"fmt"
	"sync"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/randprog"
)

// Bank-count equivalence over random programs: the address-sharded
// directory must be a pure decomposition of the monolithic one, so
// every committed corpus entry plus a fresh generated batch runs at
// DirBanks ∈ {1, 4, 16}, and every bank count must reproduce the
// single-bank run bit-for-bit — the full comparable RunStats and the
// final shared + private memory image. The banks only partition state
// by address; cross-bank flows keep the (cycle, seq) order the
// monolithic directory saw.

// oracleSystems are the systems the equivalence oracles rotate through.
// The power-token systems get their own bank test below.
func oracleSystems() []core.Kind {
	return []core.Kind{core.KindBaseline, core.KindNaiveRS, core.KindCHATS, core.KindLEVC}
}

// runProgram executes p on one system under cfg (Cores overridden to
// the program's) and returns the stats plus the flushed memory image:
// shared slots, then per-core private slots. Safe to call from any
// goroutine.
func runProgram(p *randprog.Program, kind core.Kind, cfg machine.Config) (machine.RunStats, []uint64, error) {
	policy, err := core.New(kind)
	if err != nil {
		return machine.RunStats{}, nil, err
	}
	cfg.Cores = p.Cores
	m, err := machine.New(cfg, policy)
	if err != nil {
		return machine.RunStats{}, nil, err
	}
	if banks, got := cfg.DirBanks, m.DirBanks(); got != banks && !(banks == 0 && got == 1) {
		return machine.RunStats{}, nil, fmt.Errorf("machine built %d banks, configured %d", got, banks)
	}
	w := randprog.NewWorkload(p)
	st, err := m.Run(w)
	if err != nil {
		return st, nil, fmt.Errorf("DirBanks=%d: %w", cfg.DirBanks, err)
	}
	mem := m.World().Mem
	img := make([]uint64, 0, p.Pool+p.Cores*p.Priv)
	for i := 0; i < p.Pool; i++ {
		img = append(img, mem.ReadWord(w.SlotAddr(i)))
	}
	for c := 0; c < p.Cores; c++ {
		for k := 0; k < p.Priv; k++ {
			img = append(img, mem.ReadWord(w.PrivAddr(c, k)))
		}
	}
	return st, img, nil
}

// oracleConfig is the machine config every oracle run starts from.
func oracleConfig(banks int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.CycleLimit = 200_000_000
	cfg.DirBanks = banks
	return cfg
}

// runBanked is runProgram at the given bank count, failing the test on
// error.
func runBanked(t *testing.T, p *randprog.Program, kind core.Kind, banks int) (machine.RunStats, []uint64) {
	t.Helper()
	st, img, err := runProgram(p, kind, oracleConfig(banks))
	if err != nil {
		t.Fatal(err)
	}
	return st, img
}

// runConcurrently runs one program under each config on its own
// goroutine, all at once, and returns the results in config order.
func runConcurrently(p *randprog.Program, kind core.Kind, cfgs []machine.Config) ([]machine.RunStats, [][]uint64, []error) {
	stats := make([]machine.RunStats, len(cfgs))
	imgs := make([][]uint64, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], imgs[i], errs[i] = runProgram(p, kind, cfgs[i])
		}(i)
	}
	wg.Wait()
	return stats, imgs, errs
}

// sameRun fails the test when a run diverges from the reference.
func sameRun(t *testing.T, label string, ref machine.RunStats, refImg []uint64, st machine.RunStats, img []uint64) {
	t.Helper()
	if st != ref {
		t.Errorf("%s stats diverged from the reference:\nref: %+v\ngot: %+v", label, ref, st)
	}
	for i := range refImg {
		if img[i] != refImg[i] {
			t.Errorf("%s memory slot %d = %d, reference has %d", label, i, img[i], refImg[i])
		}
	}
}

// checkBanks runs p at every bank count and fails on the first
// divergence from the single-bank run.
func checkBanks(t *testing.T, p *randprog.Program, kind core.Kind) {
	t.Helper()
	ref, refImg := runBanked(t, p, kind, 1)
	for _, banks := range []int{4, 16} {
		st, img := runBanked(t, p, kind, banks)
		sameRun(t, fmt.Sprintf("DirBanks=%d", banks), ref, refImg, st, img)
	}
}

// TestBankCorpusEquivalence replays every committed corpus program on
// the oracle systems at each bank count.
func TestBankCorpusEquivalence(t *testing.T) {
	for name, p := range loadCorpus(t) {
		for _, kind := range oracleSystems() {
			p, kind := p, kind
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				checkBanks(t, p, kind)
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
			checkBanks(t, p, kind)
		})
	}
}

// TestBankSerialSystems covers the power-token systems at the bank
// sweep: sharding must be invisible to them too.
func TestBankSerialSystems(t *testing.T) {
	g := randprog.Preset(0)
	for i, kind := range []core.Kind{core.KindPower, core.KindPCHATS} {
		seed := uint64(7100 + i)
		p := randprog.Generate(seed, g)
		t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
			t.Parallel()
			checkBanks(t, p, kind)
		})
	}
}
