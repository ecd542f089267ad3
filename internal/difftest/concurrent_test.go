package difftest_test

import (
	"fmt"
	"sync"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/randprog"
)

// In-process concurrency equivalence over random programs: a machine
// shares no mutable state with any other, so a program must produce
// bit-identical RunStats and memory images whether its run is alone in
// the process or beside other runs on concurrent goroutines — the
// property the cell-level sweep pool (-j) and chats-serve's job queue
// rely on. Under -race these batches also catch package-level state
// written during a run.

// oracleSystems are the systems the equivalence oracles rotate through.
// The power-token systems get their own test in watchdog_test.go.
func oracleSystems() []core.Kind {
	return []core.Kind{core.KindBaseline, core.KindNaiveRS, core.KindCHATS, core.KindLEVC}
}

// oracleConfig is the machine config every oracle run starts from.
func oracleConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.CycleLimit = 200_000_000
	return cfg
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
	w := randprog.NewWorkload(p)
	st, err := m.Run(w)
	if err != nil {
		return st, nil, err
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

// runLone is runProgram under oracleConfig, failing the test on error.
func runLone(t *testing.T, p *randprog.Program, kind core.Kind) (machine.RunStats, []uint64) {
	t.Helper()
	st, img, err := runProgram(p, kind, oracleConfig())
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

// checkIntra runs p alone, then two copies of it at once, and fails on
// any divergence between the copies and the lone run.
func checkIntra(t *testing.T, p *randprog.Program, kind core.Kind) {
	t.Helper()
	ref, refImg := runLone(t, p, kind)
	cfg := oracleConfig()
	stats, imgs, errs := runConcurrently(p, kind, []machine.Config{cfg, cfg})
	for i := range stats {
		if errs[i] != nil {
			t.Fatalf("concurrent copy %d: %v", i, errs[i])
		}
		sameRun(t, fmt.Sprintf("concurrent copy %d", i), ref, refImg, stats[i], imgs[i])
	}
}

// TestIntraCorpusEquivalence replays every committed corpus program on
// the oracle systems.
func TestIntraCorpusEquivalence(t *testing.T) {
	for name, p := range loadCorpus(t) {
		for _, kind := range oracleSystems() {
			p, kind := p, kind
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				checkIntra(t, p, kind)
			})
		}
	}
}

// TestIntraFuzzEquivalence does the same over a fresh generated batch —
// fixed seeds, so failures reproduce; systems rotate through the batch
// so every oracle system sees several distinct programs.
func TestIntraFuzzEquivalence(t *testing.T) {
	g := randprog.Preset(0)
	g.AddFrac = 0.5 // mix blind stores in: order-sensitive coverage
	kinds := oracleSystems()
	const n = 12
	for i := 0; i < n; i++ {
		seed := uint64(1000 + i)
		p := randprog.Generate(seed, g)
		kind := kinds[i%len(kinds)]
		t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
			t.Parallel()
			checkIntra(t, p, kind)
		})
	}
}

// TestDeliveryCorpusEquivalence replays every committed corpus program
// on the oracle systems, two copies at once against the lone run.
func TestDeliveryCorpusEquivalence(t *testing.T) {
	for name, p := range loadCorpus(t) {
		for _, kind := range oracleSystems() {
			p, kind := p, kind
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				checkIntra(t, p, kind)
			})
		}
	}
}

// TestDeliveryFuzzEquivalence does the same over a fresh generated
// batch — fixed seeds distinct from the other batches, blind stores
// mixed in for order-sensitive coverage.
func TestDeliveryFuzzEquivalence(t *testing.T) {
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	kinds := oracleSystems()
	const n = 12
	for i := 0; i < n; i++ {
		seed := uint64(9000 + i)
		p := randprog.Generate(seed, g)
		kind := kinds[i%len(kinds)]
		t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
			t.Parallel()
			checkIntra(t, p, kind)
		})
	}
}
