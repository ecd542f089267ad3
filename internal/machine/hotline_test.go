package machine

import (
	"fmt"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
)

// pinnedWL is counterWL on a line of its own: every thread hammers one
// word, so the whole coherence storm — forwards, chains,
// invalidations — lands on that line.
type pinnedWL struct {
	iters   int
	threads int
	addr    mem.Addr
}

func (w *pinnedWL) Name() string { return "pinned-counter" }
func (w *pinnedWL) Setup(wd *World, threads int) {
	w.threads = threads
	w.addr = wd.Alloc.LineAligned(1)
	wd.Mem.WriteWord(w.addr, 0)
}
func (w *pinnedWL) Thread(ctx Ctx, tid int) {
	for i := 0; i < w.iters; i++ {
		ctx.Atomic(func(tx Tx) {
			v := tx.Load(w.addr)
			tx.Store(w.addr, v+1)
			// Keep the line in the write set for a while: probes that
			// land in this window are forwardable, so chains build up.
			tx.Work(40)
		})
		ctx.Work(5)
	}
}
func (w *pinnedWL) Check(wd *World) error {
	got := wd.Mem.ReadWord(w.addr)
	want := uint64(w.threads * w.iters)
	if got != want {
		return fmt.Errorf("counter = %d, want %d", got, want)
	}
	return nil
}

// TestHotLinePinnedBankSaturation drives 64 cores into one line: deep
// CHATS chains push the 5-bit PiC toward its ceiling, the counter must
// still be exact, and the directory's load report must account the
// storm as one whole-directory entry.
func TestHotLinePinnedBankSaturation(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Cores = 64
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	w := &pinnedWL{iters: 6}
	st, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(m.World()); err != nil {
		t.Fatal(err)
	}
	if done := st.Commits + st.Fallbacks; done != 64*6 {
		t.Fatalf("commits+fallbacks = %d, want %d", done, 64*6)
	}
	if st.Aborts == 0 {
		t.Fatal("64 cores on one line should abort at least once")
	}
	loads := m.DirBankLoads()
	if len(loads) != 1 || loads[0].Bank != 0 {
		t.Fatalf("load report = %+v, want one whole-directory entry", loads)
	}
	// The counter line and the fallback-lock line are all the run
	// touches; each of the 384 atomic blocks reaches the directory.
	if l := loads[0]; l.Lines != 2 || l.Requests < 64*6 {
		t.Fatalf("load report = %+v, want 2 lines and >= %d requests", l, 64*6)
	}
}

// picWatcher records every PiC the coherence layer hands out on the
// forward and consume edges.
type picWatcher struct {
	max      coherence.PiC
	forwards int
	invalid  int
}

func (w *picWatcher) TxBegin(uint64, int, int, bool)      {}
func (w *picWatcher) TxCommit(uint64, int, int)           {}
func (w *picWatcher) TxAbort(uint64, int, htm.AbortCause) {}
func (w *picWatcher) Forward(_ uint64, _, _ int, _ mem.Addr, pic coherence.PiC) {
	w.forwards++
	w.note(pic)
}
func (w *picWatcher) Consume(_ uint64, _ int, _ mem.Addr, pic coherence.PiC) { w.note(pic) }
func (w *picWatcher) Validate(uint64, int, mem.Addr, bool)                   {}
func (w *picWatcher) Fallback(uint64, int)                                   {}
func (w *picWatcher) note(pic coherence.PiC) {
	if !pic.Valid() {
		w.invalid++
	}
	if pic > w.max {
		w.max = pic
	}
}

// TestPiCStaysEncodableOnPinnedLine checks the 5-bit ceiling end to
// end: 64 contenders — more than the PiCMax+1 encodable chain
// positions — hammer one line, and every PiC the
// directory forwards or a consumer accepts must stay in the valid
// 0..PiCMax range. Saturation has to resolve by aborting (requester
// wins), never by minting an out-of-range position.
func TestPiCStaysEncodableOnPinnedLine(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Cores = 64
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	watch := &picWatcher{}
	m.SetTracer(watch)
	w := &pinnedWL{iters: 10}
	st, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(m.World()); err != nil {
		t.Fatal(err)
	}
	if watch.forwards == 0 {
		t.Fatal("no spec forwards: the hot line never chained")
	}
	if watch.invalid != 0 {
		t.Fatalf("%d out-of-range PiCs escaped the directory (max %d)", watch.invalid, watch.max)
	}
	if watch.max > coherence.PiCMax {
		t.Fatalf("PiC reached %d, past the 5-bit ceiling %d", watch.max, coherence.PiCMax)
	}
	if st.Aborts == 0 {
		t.Fatal("64-way contention should abort at least once")
	}
}
