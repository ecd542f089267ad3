package machine

import (
	"fmt"
	"math"
	"testing"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// fallbackProbeWL forces thread 0's transaction to exhaust its retries
// (a non-transactional writer keeps killing it) so the atomic block must
// complete on the fallback path exactly once, with Fallback() == true.
type fallbackProbeWL struct {
	target   mem.Addr
	sawSpec  int
	sawFall  int
	fellback bool
}

func (w *fallbackProbeWL) Name() string { return "fallback-probe" }
func (w *fallbackProbeWL) Setup(wd *World, threads int) {
	w.target = wd.Alloc.LineAligned(1)
}
func (w *fallbackProbeWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			if tx.Fallback() {
				w.sawFall++
			} else {
				w.sawSpec++
			}
			v := tx.Load(w.target)
			tx.Work(400) // wide window for the killer
			tx.Store(w.target, v+1)
		})
		w.fellback = true
	case 1: // killer: repeated non-transactional writes
		for i := 0; i < 40; i++ {
			ctx.Store(w.target, 0)
			ctx.Work(150)
		}
	}
}
func (w *fallbackProbeWL) Check(wd *World) error {
	if w.sawFall != 1 {
		return fmt.Errorf("fallback body ran %d times, want 1", w.sawFall)
	}
	if w.sawSpec == 0 {
		return fmt.Errorf("speculative attempts never ran")
	}
	return nil
}

func TestFallbackBodyRunsOnce(t *testing.T) {
	// Single retry so the fallback path engages quickly.
	policy := core.NewBaselineWith(htm.Traits{Retries: 1})
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	w := &fallbackProbeWL{}
	stats, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", stats.Fallbacks)
	}
	if stats.ByCause[htm.CauseConflict] == 0 {
		t.Fatal("no conflict aborts recorded before fallback")
	}
}

// emptyTxWL commits transactions that touch nothing.
type emptyTxWL struct{ ran [16]bool }

func (w *emptyTxWL) Name() string          { return "empty-tx" }
func (w *emptyTxWL) Setup(*World, int)     {}
func (w *emptyTxWL) Thread(ctx Ctx, t int) { ctx.Atomic(func(Tx) {}); w.ran[t] = true }
func (w *emptyTxWL) Check(wd *World) error {
	for i, r := range w.ran {
		if !r {
			return fmt.Errorf("thread %d never ran", i)
		}
	}
	return nil
}

func TestEmptyTransactionCommits(t *testing.T) {
	stats := runWL(t, core.KindCHATS, &emptyTxWL{}, testCfg())
	if stats.Commits != 16 || stats.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d", stats.Commits, stats.Aborts)
	}
}

// nestedUseWL ensures values written earlier in a transaction are
// visible to its own later reads (read-own-writes).
type nestedUseWL struct {
	a    mem.Addr
	fail bool
}

func (w *nestedUseWL) Name() string { return "read-own-writes" }
func (w *nestedUseWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(2)
}
func (w *nestedUseWL) Thread(ctx Ctx, tid int) {
	if tid != 0 {
		return
	}
	ctx.Atomic(func(tx Tx) {
		tx.Store(w.a, 41)
		if tx.Load(w.a) != 41 {
			w.fail = true
		}
		tx.Store(w.a, tx.Load(w.a)+1)
		tx.Store(w.a.Plus(1), tx.Load(w.a)*2)
	})
}
func (w *nestedUseWL) Check(wd *World) error {
	if w.fail {
		return fmt.Errorf("read-own-writes violated")
	}
	if wd.Mem.ReadWord(w.a) != 42 || wd.Mem.ReadWord(w.a.Plus(1)) != 84 {
		return fmt.Errorf("final state %d/%d, want 42/84",
			wd.Mem.ReadWord(w.a), wd.Mem.ReadWord(w.a.Plus(1)))
	}
	return nil
}

func TestReadOwnWrites(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBaseline, core.KindCHATS} {
		runWL(t, kind, &nestedUseWL{}, testCfg())
	}
}

// firstRandWL records each thread's first draw from its PRNG.
type firstRandWL struct{ first [16]uint64 }

func (w *firstRandWL) Name() string          { return "first-rand" }
func (w *firstRandWL) Setup(*World, int)     {}
func (w *firstRandWL) Thread(ctx Ctx, t int) { w.first[t] = ctx.Rand().Uint64() }
func (w *firstRandWL) Check(*World) error    { return nil }

// TestThreadRandsDiffer: every thread of a 16-core run draws from its own
// stream, and the streams are a pure function of the seed.
func TestThreadRandsDiffer(t *testing.T) {
	cfg := testCfg()
	if cfg.Cores != 16 {
		t.Fatalf("Cores = %d, want 16", cfg.Cores)
	}
	run := func() [16]uint64 {
		w := &firstRandWL{}
		runWL(t, core.KindBaseline, w, cfg)
		return w.first
	}
	first := run()
	seen := map[uint64]int{}
	for tid, v := range first {
		if prev, dup := seen[v]; dup {
			t.Fatalf("threads %d and %d drew the same first value %#x", prev, tid, v)
		}
		seen[v] = tid
	}
	if again := run(); again != first {
		t.Errorf("second run drew %x, first run %x", again, first)
	}
}

// The backoff clamp must keep pathological BackoffBase values sane (a
// MaxUint64 base once wrapped base+1 to zero and shifted into garbage)
// while staying bit-identical to the plain formula for the default base.
func TestBackoffClampsOverflow(t *testing.T) {
	mk := func(base uint64) *tctx {
		return &tctx{r: &runner{m: &Machine{cfg: Config{BackoffBase: base}}}, rng: sim.NewRand(7)}
	}

	tc := mk(math.MaxUint64)
	for _, aborts := range []int{1, 2, 5, 6, 40} {
		d := tc.backoff(aborts)
		if d < maxBackoffDelay || d > 2*maxBackoffDelay {
			t.Fatalf("base=MaxUint64 aborts=%d: delay %d outside [%d, %d]",
				aborts, d, uint64(maxBackoffDelay), uint64(2*maxBackoffDelay))
		}
	}

	// A base below the cap whose shifted value overflows the cap.
	tc = mk(maxBackoffDelay - 1)
	if d := tc.backoff(40); d < maxBackoffDelay || d > 2*maxBackoffDelay {
		t.Fatalf("base=cap-1 aborts=40: delay %d outside [%d, %d]",
			d, uint64(maxBackoffDelay), uint64(2*maxBackoffDelay))
	}

	// Default base: clamp is a no-op, including the PRNG stream.
	base := DefaultConfig().BackoffBase
	tc = mk(base)
	ref := sim.NewRand(7)
	for aborts := 1; aborts <= 8; aborts++ {
		shift := aborts
		if shift > 5 {
			shift = 5
		}
		want := base<<uint(shift) + ref.Uint64n(base+1)
		if got := tc.backoff(aborts); got != want {
			t.Fatalf("aborts=%d: backoff %d, want unclamped %d", aborts, got, want)
		}
	}
}
