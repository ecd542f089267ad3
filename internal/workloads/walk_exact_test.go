package workloads_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/testutil"
	"chats/internal/workloads"
)

// loopWL runs a workload with every Walk replaced by a thread-side Load
// loop: the per-load path an engine-time walk must reproduce exactly.
type loopWL struct {
	machine.Workload
	walks *int
}

func (w loopWL) Thread(ctx machine.Ctx, tid int) {
	w.Workload.Thread(loopCtx{Ctx: ctx, walks: w.walks}, tid)
}

type loopCtx struct {
	machine.Ctx
	walks *int
}

func (c loopCtx) Walk(first mem.Addr, w mem.Walker) {
	*c.walks++
	loadLoop(c.Ctx, first, w)
}

func (c loopCtx) Atomic(body func(tx machine.Tx)) {
	c.Ctx.Atomic(func(tx machine.Tx) { body(loopTx{Tx: tx, walks: c.walks}) })
}

type loopTx struct {
	machine.Tx
	walks *int
}

func (t loopTx) Walk(first mem.Addr, w mem.Walker) {
	*t.walks++
	loadLoop(t.Tx, first, w)
}

func loadLoop(m interface{ Load(mem.Addr) uint64 }, first mem.Addr, w mem.Walker) {
	for a, more := first, true; more; {
		a, more = w.Next(m.Load(a))
	}
}

// streamHash hashes a run's cycle-stamped event stream: transaction
// events through WriterTracer and every completed workload op.
type streamHash struct {
	machine.WriterTracer
	h   hash.Hash
	ops int
	op  uint64 // FNV-1a over the op fields
}

func newStreamHash() *streamHash {
	h := sha256.New()
	return &streamHash{WriterTracer: machine.WriterTracer{W: h}, h: h, op: 14695981039346656037}
}

func (s *streamHash) Op(cycle uint64, core int, op machine.OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	s.ops++
	flags := uint64(op) << 2
	if inTx {
		flags |= 1
	}
	if ok {
		flags |= 2
	}
	for _, x := range [...]uint64{cycle, uint64(core), flags, uint64(addr), val, val2} {
		s.op = (s.op ^ x) * 1099511628211
	}
}

func (s *streamHash) sum() string { return fmt.Sprintf("%x/%x/%d", s.h.Sum(nil), s.op, s.ops) }

// TestWalkExactness: every workload that walks gives the same RunStats
// and the same cycle-stamped op stream whether its walks run at engine
// time or as thread-side Load loops, on the five paper systems, on the
// STM and elide fallback paths, and with spurious aborts landing
// mid-walk.
func TestWalkExactness(t *testing.T) {
	variants := []struct {
		name string
		set  func(*machine.Config)
	}{
		{"lock", func(*machine.Config) {}},
		{"stm", func(c *machine.Config) { c.Fallback = machine.FallbackConfig{Kind: machine.FallbackSTM} }},
		{"elide", func(c *machine.Config) { c.Fallback = machine.FallbackConfig{Kind: machine.FallbackElide} }},
		{"spurious", func(c *machine.Config) { c.Faults = &faults.Plan{Spurious: 0.02} }},
	}
	systems := []core.Kind{core.KindBaseline, core.KindNaiveRS, core.KindCHATS, core.KindPower, core.KindPCHATS}
	for _, name := range []string{"llb-l", "llb-h", "cadd", "genome", "vacation", "labyrinth", "intruder"} {
		for _, kind := range systems {
			for _, v := range variants {
				name, kind, v := name, kind, v
				t.Run(name+"/"+string(kind)+"/"+v.name, func(t *testing.T) {
					t.Parallel()
					cfg := tinyCfg()
					v.set(&cfg)
					run := func(loop bool) (machine.RunStats, *streamHash, int) {
						w, err := workloads.New(name, workloads.Tiny)
						if err != nil {
							t.Fatal(err)
						}
						walks := 0
						if loop {
							w = loopWL{Workload: w, walks: &walks}
						}
						m := testutil.Machine(t, cfg, testutil.Policy(t, kind))
						tr := newStreamHash()
						m.SetTracer(tr)
						st, err := m.Run(w)
						if err != nil {
							t.Fatal(err)
						}
						return st, tr, walks
					}
					st, tr, _ := run(false)
					wantSt, wantTr, walks := run(true)
					if walks == 0 {
						t.Fatal("the workload made no walks")
					}
					if st != wantSt {
						t.Errorf("stats differ:\nwalk: %+v\nloop: %+v", st, wantSt)
					}
					if got, want := tr.sum(), wantTr.sum(); got != want {
						t.Errorf("event streams differ: walk %s, loop %s", got, want)
					}
				})
			}
		}
	}
}
