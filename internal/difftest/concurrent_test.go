package difftest_test

import (
	"fmt"
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

// checkIntra runs p alone, then two copies of it at once, and fails on
// any divergence between the copies and the lone run.
func checkIntra(t *testing.T, p *randprog.Program, kind core.Kind) {
	t.Helper()
	ref, refImg := runBanked(t, p, kind, 1)
	cfg := oracleConfig(1)
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

// checkDelivery crosses the two invisible axes: the single-bank run
// alone is the reference, and a single-bank and a 4-bank copy then run
// at once. Responses, probes, unblocks and writeback data cross bank
// boundaries in the banked copy while another machine runs beside it;
// both copies must match the reference bit-for-bit.
func checkDelivery(t *testing.T, p *randprog.Program, kind core.Kind) {
	t.Helper()
	ref, refImg := runBanked(t, p, kind, 1)
	cfgs := []machine.Config{oracleConfig(1), oracleConfig(4)}
	stats, imgs, errs := runConcurrently(p, kind, cfgs)
	for i := range stats {
		label := fmt.Sprintf("concurrent DirBanks=%d", cfgs[i].DirBanks)
		if errs[i] != nil {
			t.Fatalf("%s: %v", label, errs[i])
		}
		sameRun(t, label, ref, refImg, stats[i], imgs[i])
	}
}

// TestDeliveryCorpusEquivalence replays every committed corpus program
// on the oracle systems across the delivery grid.
func TestDeliveryCorpusEquivalence(t *testing.T) {
	for name, p := range loadCorpus(t) {
		for _, kind := range oracleSystems() {
			p, kind := p, kind
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				checkDelivery(t, p, kind)
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
			checkDelivery(t, p, kind)
		})
	}
}
