package machine

import (
	"fmt"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/mem"
	"chats/internal/sim"
)

// Directed pins for branches that no other whole-machine test takes;
// scripts/census.sh counts them as reached through these tests.

// evictThenInvWL: threads 0 and 1 read line a, so the directory holds it
// Shared by both. Thread 0 then loads L1Ways more lines of a's L1 set,
// which evicts its clean copy silently, and thread 2's store to a
// invalidates both sharers: core 0 answers an Inv for a line it no
// longer holds.
type evictThenInvWL struct {
	ways   int
	stride mem.Addr
	a      mem.Addr
}

func (w *evictThenInvWL) Name() string { return "evict-then-inv" }
func (w *evictThenInvWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.Lines(int(w.stride/mem.LineSize) * (w.ways + 1))
}
func (w *evictThenInvWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Load(w.a)
		ctx.Work(2_000)
		for k := 1; k <= w.ways; k++ {
			ctx.Load(w.a + mem.Addr(k)*w.stride)
		}
	case 1:
		ctx.Work(1_000)
		ctx.Load(w.a)
	case 2:
		ctx.Work(40_000)
		ctx.Store(w.a, 9)
	}
}
func (w *evictThenInvWL) Check(wd *World) error {
	if v := wd.Mem.ReadWord(w.a); v != 9 {
		return fmt.Errorf("a = %d, want 9", v)
	}
	return nil
}

func TestInvToSilentlyEvictedSharer(t *testing.T) {
	cfg := testCfg()
	cfg.Cores = 3
	sets := cfg.L1Size / (cfg.L1Ways * mem.LineSize)
	w := &evictThenInvWL{ways: cfg.L1Ways, stride: mem.Addr(sets * mem.LineSize)}
	policy, err := core.New(core.KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	probe := &evictProbe{m: m, w: w}
	m.SetTracer(probe)
	st, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.evicted || st.DirInvs == 0 {
		t.Fatalf("core 0 had evicted a when thread 2 stored: %v; directory invalidations %d", probe.evicted, st.DirInvs)
	}
}

// evictProbe records whether core 0 had dropped line a by the time
// thread 2 issued its store.
type evictProbe struct {
	NopTracer
	m       *Machine
	w       *evictThenInvWL
	evicted bool
}

func (p *evictProbe) Op(cycle uint64, core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	if core == 2 && op == OpStore {
		p.evicted = p.m.nodes[0].l1.Peek(p.w.a) == nil
	}
}

// stmOverrunWL: one atomic block stores to one more line of an L1 set
// than the set has ways, which aborts every hardware attempt for
// capacity, and then loads a word until its ops exceed stmOpsBudget. On
// the STM path it overruns its first budget, doubles it and commits on
// the second execution.
type stmOverrunWL struct {
	ways     int
	stride   mem.Addr
	a        mem.Addr
	fallback int // executions that saw Fallback() true
}

func (w *stmOverrunWL) Name() string { return "stm-overrun" }
func (w *stmOverrunWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.Lines(int(w.stride/mem.LineSize) * (w.ways + 1))
}
func (w *stmOverrunWL) Thread(ctx Ctx, tid int) {
	ctx.Atomic(func(tx Tx) {
		if tx.Fallback() {
			w.fallback++
		}
		for k := 0; k <= w.ways; k++ {
			tx.Store(w.a+mem.Addr(k)*w.stride, 1)
		}
		for i := 0; i < stmOpsBudget; i++ {
			tx.Load(w.a)
		}
	})
}
func (w *stmOverrunWL) Check(wd *World) error {
	for k := 0; k <= w.ways; k++ {
		if v := wd.Mem.ReadWord(w.a + mem.Addr(k)*w.stride); v != 1 {
			return fmt.Errorf("line %d = %d, want 1", k, v)
		}
	}
	return nil
}

func TestSTMBodyOverrunsBudget(t *testing.T) {
	cfg := testCfg()
	cfg.Cores = 1
	var err error
	if cfg.Fallback, err = ParseFallback("stm"); err != nil {
		t.Fatal(err)
	}
	sets := cfg.L1Size / (cfg.L1Ways * mem.LineSize)
	w := &stmOverrunWL{ways: cfg.L1Ways, stride: mem.Addr(sets * mem.LineSize)}
	st := runWL(t, core.KindBaseline, w, cfg)
	if st.FallbackSTMRetries != 1 || st.FallbackSTMCommits != 1 || w.fallback != 2 {
		t.Fatalf("STM retries %d, commits %d, executions seeing Fallback() %d; want 1, 1, 2",
			st.FallbackSTMRetries, st.FallbackSTMCommits, w.fallback)
	}
}

// TestBackoffLinearAndJitterClamp: the linear backoff stops growing
// after 64 aborts, and both the linear and the jittered delay stop at
// the configured cap.
func TestBackoffLinearAndJitterClamp(t *testing.T) {
	const base = 10
	mk := func(kind BackoffKind, cap uint64) *tctx {
		cfg := Config{BackoffBase: base, Backoff: BackoffConfig{Kind: kind, Cap: cap}}
		return &tctx{r: &runner{m: &Machine{cfg: cfg}}, rng: sim.NewRand(7)}
	}
	for _, tc := range []struct {
		name   string
		t      *tctx
		aborts int
		want   func(r *sim.Rand) uint64
	}{
		{"linear past 64 aborts", mk(BackoffLinear, 0), 100,
			func(r *sim.Rand) uint64 { return base*64 + r.Uint64n(base+1) }},
		{"linear at the cap", mk(BackoffLinear, 100), 20,
			func(r *sim.Rand) uint64 { return 100 + r.Uint64n(base+1) }},
		{"jitter at the cap", mk(BackoffJitter, 100), 5,
			func(r *sim.Rand) uint64 { return r.Uint64n(100 + 1) }},
	} {
		ref := sim.NewRand(7)
		for i := 0; i < 4; i++ {
			if got, want := tc.t.backoff(tc.aborts), tc.want(ref); got != want {
				t.Fatalf("%s: draw %d: backoff %d, want %d", tc.name, i, got, want)
			}
		}
	}
}

// TestDumpElidesLongSets: a set of more than dumpAddrCap lines prints
// its first dumpAddrCap and a count of the rest.
func TestDumpElidesLongSets(t *testing.T) {
	as := make([]mem.Addr, dumpAddrCap+3)
	for i := range as {
		as[i] = mem.Addr(i * mem.LineSize)
	}
	got := fmtAddrs(as)
	if !strings.HasSuffix(got, fmt.Sprintf("%v +3 more]", as[dumpAddrCap-1])) ||
		strings.Contains(got, as[dumpAddrCap].String()+" ") {
		t.Fatalf("fmtAddrs = %q", got)
	}
}
