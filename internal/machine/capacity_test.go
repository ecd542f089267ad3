package machine

import (
	"fmt"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
)

// setStride is the distance between two addresses that map to the same
// L1 set (64 sets × 64-byte lines for the Table I cache).
const setStride = 64 * mem.LineSize

// overflowWL writes more lines into one cache set than its associativity
// allows: the transaction must take a capacity abort and complete
// through the fallback lock.
type overflowWL struct {
	base  mem.Addr
	lines int
}

func (w *overflowWL) Name() string { return "overflow" }
func (w *overflowWL) Setup(wd *World, threads int) {
	w.base = wd.Alloc.Lines(1)
	// Reserve the whole conflict range so nothing else lands in it.
	wd.Alloc.Lines(w.lines * 64)
}
func (w *overflowWL) Thread(ctx Ctx, tid int) {
	if tid != 0 {
		return
	}
	ctx.Atomic(func(tx Tx) {
		for i := 0; i < w.lines; i++ {
			tx.Store(w.base+mem.Addr(i*setStride), uint64(i))
		}
	})
}
func (w *overflowWL) Check(wd *World) error {
	for i := 0; i < w.lines; i++ {
		if wd.Mem.ReadWord(w.base+mem.Addr(i*setStride)) != uint64(i) {
			return fmt.Errorf("line %d lost", i)
		}
	}
	return nil
}

func TestWriteSetOverflowFallsBack(t *testing.T) {
	stats := runWL(t, core.KindBaseline, &overflowWL{lines: 14}, testCfg()) // 12-way set
	if stats.ByCause[htm.CauseCapacity] == 0 {
		t.Fatalf("expected capacity aborts; causes = %v", stats.ByCause)
	}
	if stats.Fallbacks == 0 {
		t.Fatal("oversized transaction must complete via the fallback lock")
	}
}

// evictedReadWL: thread 0's transaction reads more lines of one L1 set
// than the set has ways, so its first read line is evicted, and then
// lingers. Meanwhile thread 1 stores to that line non-transactionally.
// Just before the store it records core 0's view of the line.
type evictedReadWL struct {
	m                   *Machine
	base                mem.Addr
	lines               int
	inTx, cached, reads bool
}

func (w *evictedReadWL) Name() string { return "evicted-read" }
func (w *evictedReadWL) Setup(wd *World, threads int) {
	w.base = wd.Alloc.Lines(1)
	wd.Alloc.Lines(w.lines * 64)
}
func (w *evictedReadWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			for i := 0; i < w.lines; i++ {
				tx.Load(w.base + mem.Addr(i*setStride))
			}
			tx.Work(20_000)
		})
	case 1:
		ctx.Work(10_000)
		n := w.m.nodes[0]
		w.inTx, w.cached, w.reads = n.tx.InTx(), n.l1.Peek(w.base) != nil, n.l1.Reads(w.base)
		ctx.Store(w.base, 1)
	}
}
func (w *evictedReadWL) Check(wd *World) error {
	if got := wd.Mem.ReadWord(w.base); got != 1 {
		return fmt.Errorf("stored word = %d, want 1", got)
	}
	return nil
}

// TestEvictedReadLineStillConflicts: the read set survives evictions, so
// a remote store to a read line the L1 no longer holds still aborts the
// reader with a conflict.
func TestEvictedReadLineStillConflicts(t *testing.T) {
	policy, err := core.New(core.KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	w := &evictedReadWL{m: m, lines: 14} // 12-way set
	stats, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !w.inTx || w.cached || !w.reads {
		t.Fatalf("before the store: core 0 in tx %v, line cached %v, in read set %v; want true, false, true",
			w.inTx, w.cached, w.reads)
	}
	if stats.ByCause[htm.CauseConflict] != 1 || stats.Aborts != 1 || stats.Commits != 1 {
		t.Fatalf("aborts %d (causes %v), commits %d; want one conflict abort, then a commit",
			stats.Aborts, stats.ByCause, stats.Commits)
	}
}

// churnWL touches far more lines than L1 holds, forcing evictions and
// dirty writebacks (and exercising the writeback-buffer reinstall path).
type churnWL struct {
	base  mem.Addr
	lines int
}

func (w *churnWL) Name() string { return "churn" }
func (w *churnWL) Setup(wd *World, threads int) {
	w.base = wd.Alloc.Lines(w.lines)
}
func (w *churnWL) Thread(ctx Ctx, tid int) {
	if tid != 0 {
		return
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < w.lines; i++ {
			a := w.base + mem.Addr(i*mem.LineSize)
			ctx.Store(a, ctx.Load(a)+1)
		}
	}
}
func (w *churnWL) Check(wd *World) error {
	for i := 0; i < w.lines; i++ {
		if got := wd.Mem.ReadWord(w.base + mem.Addr(i*mem.LineSize)); got != 3 {
			return fmt.Errorf("line %d = %d, want 3", i, got)
		}
	}
	return nil
}

func TestEvictionWritebackRoundTrip(t *testing.T) {
	// 2000 dirty lines >> 768 L1 lines: every pass after the first evicts
	// and reloads, exercising writebacks and the writeback buffer.
	stats := runWL(t, core.KindBaseline, &churnWL{lines: 2000}, testCfg())
	if stats.L1Misses == 0 {
		t.Fatal("churn produced no misses")
	}
}

// wideConsumeWL makes one consumer read more forwarded lines than the
// VSB holds, driving the VSB-full retry path.
type wideConsumeWL struct {
	base mem.Addr
	n    int
}

func (w *wideConsumeWL) Name() string { return "wide-consume" }
func (w *wideConsumeWL) Setup(wd *World, threads int) {
	w.n = 8
	w.base = wd.Alloc.Lines(w.n)
}
func (w *wideConsumeWL) line(i int) mem.Addr { return w.base + mem.Addr(i*mem.LineSize) }
func (w *wideConsumeWL) Thread(ctx Ctx, tid int) {
	switch {
	case tid < w.n: // producers: each owns one line, lingers
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.line(tid), uint64(tid)+1)
			tx.Work(4000)
		})
	case tid == w.n: // consumer: reads all producer lines
		ctx.Work(500)
		ctx.Atomic(func(tx Tx) {
			var sum uint64
			for i := 0; i < w.n; i++ {
				sum += tx.Load(w.line(i))
			}
			_ = sum
		})
	}
}
func (w *wideConsumeWL) Check(wd *World) error { return nil }

func TestVSBCapacityLimitsConsumption(t *testing.T) {
	stats := runWL(t, core.KindCHATS, &wideConsumeWL{}, testCfg())
	if stats.SpecRespsConsumed == 0 {
		t.Skip("timing produced no forwarding; inconclusive")
	}
	if stats.SpecDropVSB == 0 && stats.SpecRespsConsumed > 4 {
		t.Fatalf("consumer took %d spec lines with a 4-entry VSB and no drops",
			stats.SpecRespsConsumed)
	}
}

// ctxAPIWL exercises the non-transactional Ctx surface.
type ctxAPIWL struct {
	base mem.Addr
}

func (w *ctxAPIWL) Name() string { return "ctx-api" }
func (w *ctxAPIWL) Setup(wd *World, threads int) {
	w.base = wd.Alloc.Lines(threads)
}
func (w *ctxAPIWL) Thread(ctx Ctx, tid int) {
	if ctx.TID() != tid || ctx.Threads() != 16 {
		panic("ctx identity wrong")
	}
	a := w.base + mem.Addr(tid*mem.LineSize)
	ctx.Store(a, uint64(ctx.Rand().Intn(100))+1)
	ctx.Work(0) // zero-cycle work must still cost at least a cycle
	if ctx.Load(a) == 0 {
		panic("non-transactional store lost")
	}
}
func (w *ctxAPIWL) Check(wd *World) error {
	for i := 0; i < 16; i++ {
		if wd.Mem.ReadWord(w.base+mem.Addr(i*mem.LineSize)) == 0 {
			return fmt.Errorf("slot %d empty", i)
		}
	}
	return nil
}

func TestCtxNonTransactionalAPI(t *testing.T) {
	runWL(t, core.KindBaseline, &ctxAPIWL{}, testCfg())
}

func TestAbortRateMetric(t *testing.T) {
	s := RunStats{Commits: 3, Aborts: 1}
	if got := s.AbortRate(); got != 0.25 {
		t.Fatalf("AbortRate = %g", got)
	}
	if (RunStats{}).AbortRate() != 0 {
		t.Fatal("empty AbortRate should be 0")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = coherence.MaxCores + 1 },
		func(c *Config) { c.L1Size = 0 },
		func(c *Config) { c.NackRetryLimit = 0 },
		func(c *Config) { c.VSBRetryLimit = 0 },
		func(c *Config) { c.PowerAttemptLimit = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}
