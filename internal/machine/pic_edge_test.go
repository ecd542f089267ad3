package machine

import (
	"fmt"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
)

// The Fig. 3 edge rules need a chain deeper than PiCInit (15) below the
// first producer, or than PiCMax-PiCInit (15) above it, so no workload
// of 16 cores or fewer reaches them. These tests build such chains one
// forwarded line per core, staggered by picGap cycles, with every
// transaction held open until the chain is complete.

const picGap = 1000

// picChainWL links n cores through lines x[0..n-1].
//
// Down (n = 17): core i writes x[i] and, one gap after core i-1 wrote
// x[i-1], reads it. Each read is forwarded by a producer one position
// below its own producer's, so core i sits at PiC 15-i: core 15 reaches
// 0, and core 16's read of x[15] meets the Fig. 3B requester-underflow
// rule.
//
// Up (n = 18): every core writes its own line first; then, one gap
// apart, core i reads x[i+1]. Core i already sits in the chain when it
// asks, so its producer joins one position above it (Fig. 3C): core 1
// at 15 up to core 16 at 30, whose read of x[17] meets an overflow. If
// withY, core 0 first reads core 17's line y, so core 17 already holds
// PiC 15 with no speculative input: it must raise past core 16 and
// meets the Fig. 3D/F overflow. Otherwise core 17 is unchained and
// meets the Fig. 3C one.
type picChainWL struct {
	n     int
	up    bool
	withY bool
	x     []mem.Addr
	y     mem.Addr
}

func (w *picChainWL) Name() string { return "pic-chain" }

func (w *picChainWL) Setup(wd *World, _ int) {
	w.x = make([]mem.Addr, w.n)
	for i := range w.x {
		w.x[i] = wd.Alloc.LineAligned(1)
	}
	w.y = wd.Alloc.LineAligned(1)
}

func (w *picChainWL) Thread(ctx Ctx, tid int) {
	hold := uint64(w.n+4) * picGap
	if !w.up {
		ctx.Work(uint64(tid) * picGap)
		ctx.Atomic(func(tx Tx) {
			var v uint64
			if tid > 0 {
				v = tx.Load(w.x[tid-1])
			}
			tx.Store(w.x[tid], v+1)
			tx.Work(hold)
		})
		return
	}
	ctx.Atomic(func(tx Tx) {
		if tid == w.n-1 && w.withY {
			tx.Store(w.y, 1)
		}
		tx.Store(w.x[tid], 1)
		if tid == 0 && w.withY {
			tx.Work(picGap / 2)
			tx.Load(w.y)
		}
		if tid < w.n-1 {
			tx.Work(uint64(tid+1) * picGap)
			v := tx.Load(w.x[tid+1])
			tx.Store(w.x[tid], v+1)
		}
		tx.Work(hold)
	})
}

// Check holds each line to a serial outcome: a transaction that read a
// neighbour's line ran either before that neighbour (read the initial
// value) or after it (read its final value).
func (w *picChainWL) Check(wd *World) error {
	for i := range w.x {
		got := wd.Mem.ReadWord(w.x[i])
		switch {
		case !w.up && i > 0:
			if prev := wd.Mem.ReadWord(w.x[i-1]); got != 1 && got != prev+1 {
				return fmt.Errorf("x[%d] = %d, x[%d] = %d", i, got, i-1, prev)
			}
		case w.up && i < w.n-1:
			if next := wd.Mem.ReadWord(w.x[i+1]); got != 1 && got != next+1 {
				return fmt.Errorf("x[%d] = %d, x[%d] = %d", i, got, i+1, next)
			}
		default:
			if got != 1 {
				return fmt.Errorf("x[%d] = %d, want 1", i, got)
			}
		}
	}
	return nil
}

// picEdgeTracer follows every core's PiC through the Forward and
// Consume events and records each requester-wins conflict whose holder
// then aborts: the edge rules' only visible effect.
type picEdgeTracer struct {
	NopTracer
	pic      []coherence.PiC
	pending  map[int][2]coherence.PiC // holder -> {holder, requester} PiC at the conflict
	aborts   map[[2]coherence.PiC]int // {holder, requester} PiC -> aborts
	maxPiC   coherence.PiC
	consumes int
}

func newPicEdgeTracer(n int) *picEdgeTracer {
	tr := &picEdgeTracer{pic: make([]coherence.PiC, n), pending: map[int][2]coherence.PiC{},
		aborts: map[[2]coherence.PiC]int{}, maxPiC: coherence.PiCNone}
	for i := range tr.pic {
		tr.pic[i] = coherence.PiCNone
	}
	return tr
}

func (tr *picEdgeTracer) set(core int, p coherence.PiC) {
	tr.pic[core] = p
	tr.maxPiC = max(tr.maxPiC, p)
}

func (tr *picEdgeTracer) TxBegin(_ uint64, core, _ int, _ bool) { tr.pic[core] = coherence.PiCNone }
func (tr *picEdgeTracer) TxCommit(_ uint64, core int, _ int)    { tr.pic[core] = coherence.PiCNone }

func (tr *picEdgeTracer) Forward(_ uint64, producer, _ int, _ mem.Addr, pic coherence.PiC) {
	tr.set(producer, pic)
}

func (tr *picEdgeTracer) Consume(_ uint64, core int, _ mem.Addr, pic coherence.PiC) {
	tr.consumes++
	if tr.pic[core] == coherence.PiCNone {
		tr.set(core, pic-1)
	}
}

func (tr *picEdgeTracer) Conflict(_ uint64, holder, requester int, _ mem.Addr, kind coherence.ProbeKind, dec htm.ProbeDecision) {
	delete(tr.pending, holder)
	if dec == htm.DecideAbort && kind != coherence.InvProbe {
		tr.pending[holder] = [2]coherence.PiC{tr.pic[holder], tr.pic[requester]}
	}
}

func (tr *picEdgeTracer) TxAbort(_ uint64, core int, cause htm.AbortCause) {
	if at, ok := tr.pending[core]; ok && cause == htm.CauseConflict {
		tr.aborts[at]++
	}
	delete(tr.pending, core)
	tr.pic[core] = coherence.PiCNone
}

func runPicChain(t *testing.T, w *picChainWL) *picEdgeTracer {
	t.Helper()
	cfg := testCfg()
	cfg.Cores = w.n
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	tr := newPicEdgeTracer(w.n)
	m.SetTracer(tr)
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPiCRequesterUnderflowAborts: a 17-deep downward chain takes core
// 15 to PiC 0; core 16, unchained, then asks for its line, and the Fig.
// 3B rule refuses to place the requester below 0: the holder aborts.
func TestPiCRequesterUnderflowAborts(t *testing.T) {
	tr := runPicChain(t, &picChainWL{n: 17})
	if n := tr.aborts[[2]coherence.PiC{0, coherence.PiCNone}]; n == 0 {
		t.Fatalf("no holder at PiC 0 aborted for an unchained requester; requester-wins aborts by {holder, requester} PiC: %v (%d consumes)",
			tr.aborts, tr.consumes)
	}
}

// TestPiCOverflowAborts: an 18-deep upward chain takes core 16 to
// PiCMax; the producer it asks next cannot take a position above it.
// Unchained, that producer meets the Fig. 3C overflow; already chained
// at PiCInit with no speculative input, it meets the overflow of the
// Fig. 3D/F raise. Either way the producer aborts.
func TestPiCOverflowAborts(t *testing.T) {
	for _, tc := range []struct {
		withY  bool
		holder coherence.PiC
	}{
		{false, coherence.PiCNone},
		{true, coherence.PiCInit},
	} {
		tr := runPicChain(t, &picChainWL{n: 18, up: true, withY: tc.withY})
		if tr.maxPiC != coherence.PiCMax {
			t.Fatalf("withY=%v: chain peaked at PiC %d, want %d", tc.withY, tr.maxPiC, coherence.PiCMax)
		}
		if n := tr.aborts[[2]coherence.PiC{tc.holder, coherence.PiCMax}]; n == 0 {
			t.Fatalf("withY=%v: no holder at PiC %d aborted for a requester at PiCMax; requester-wins aborts by {holder, requester} PiC: %v",
				tc.withY, tc.holder, tr.aborts)
		}
	}
}
