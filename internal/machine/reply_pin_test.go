package machine

import (
	"fmt"
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/mem"
)

// commitWaitWL: thread 0's transaction writes line a and works on, so
// threads 1 and 2 consume a speculatively and reach Commit with a
// non-empty VSB. Thread 1 waits there until a validation response
// finalizes its commit; thread 2 also read line b, and thread 3's plain
// store to b kills it while it waits.
type commitWaitWL struct{ a, b mem.Addr }

func (w *commitWaitWL) Name() string { return "commit-wait" }
func (w *commitWaitWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.b = wd.Alloc.LineAligned(1)
}
func (w *commitWaitWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.a, 1)
			tx.Work(400)
		})
	case 1:
		ctx.Work(100)
		ctx.Atomic(func(tx Tx) { tx.Load(w.a) })
	case 2:
		ctx.Work(100)
		ctx.Atomic(func(tx Tx) {
			tx.Load(w.b)
			tx.Load(w.a)
		})
	case 3:
		ctx.Work(425)
		ctx.Store(w.b, 7)
	}
}
func (w *commitWaitWL) Check(wd *World) error {
	if v := wd.Mem.ReadWord(w.a); v != 1 {
		return fmt.Errorf("a = %d, want 1", v)
	}
	return nil
}

// incrementWL: every thread increments one word iters times, each in a
// transaction that works between its load and its store.
type incrementWL struct {
	iters   int
	work    uint64
	threads int
	a       mem.Addr
}

func (w *incrementWL) Name() string { return "increment" }
func (w *incrementWL) Setup(wd *World, threads int) {
	w.threads = threads
	w.a = wd.Alloc.LineAligned(1)
}
func (w *incrementWL) Thread(ctx Ctx, tid int) {
	for i := 0; i < w.iters; i++ {
		ctx.Atomic(func(tx Tx) {
			v := tx.Load(w.a)
			tx.Work(w.work)
			tx.Store(w.a, v+1)
		})
		ctx.Work(20)
	}
}
func (w *incrementWL) Check(wd *World) error {
	if v, want := wd.Mem.ReadWord(w.a), uint64(w.threads*w.iters); v != want {
		return fmt.Errorf("a = %d, want %d", v, want)
	}
	return nil
}

// silentDropWL runs on a one-line L1: thread 0 reads line a in a
// transaction, then evicts the clean exclusive copy without telling the
// directory. Thread 1's transactional read of a is forwarded to thread 0,
// which no longer holds it, so the directory serves memory.
type silentDropWL struct{ a, b mem.Addr }

func (w *silentDropWL) Name() string { return "silent-drop" }
func (w *silentDropWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.b = wd.Alloc.LineAligned(1)
	wd.Mem.WriteWord(w.a, 5)
}
func (w *silentDropWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) { tx.Load(w.a) })
		ctx.Load(w.b)
	case 1:
		ctx.Work(600)
		ctx.Atomic(func(tx Tx) { tx.Store(w.b, tx.Load(w.a)) })
	}
}
func (w *silentDropWL) Check(wd *World) error {
	if v := wd.Mem.ReadWord(w.b); v != 5 {
		return fmt.Errorf("b = %d, want 5", v)
	}
	return nil
}

// wbProbeWL runs on a one-line L1: thread 0 dirties line a and evicts it
// with a load of b, while thread 1's load of a is forwarded to thread 0.
// The probe arrives while a's writeback is still in flight, so thread 0
// serves it from the writeback buffer and withdraws the writeback.
type wbProbeWL struct {
	a, b mem.Addr
	got  uint64
}

func (w *wbProbeWL) Name() string { return "wb-probe" }
func (w *wbProbeWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.b = wd.Alloc.LineAligned(1)
}
func (w *wbProbeWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Store(w.a, 1)
		ctx.Work(100)
		ctx.Load(w.b)
	case 1:
		ctx.Work(383)
		w.got = ctx.Load(w.a)
	}
}
func (w *wbProbeWL) Check(wd *World) error {
	if w.got != 1 {
		return fmt.Errorf("thread 1 read a = %d, want 1", w.got)
	}
	if v := wd.Mem.ReadWord(w.a); v != 1 {
		return fmt.Errorf("a = %d, want 1", v)
	}
	return nil
}

// withFaults returns cfg with the fault plan spec.
func withFaults(t *testing.T, cfg Config, spec string) Config {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &p
	return cfg
}

// coresCfg returns the test machine with n cores.
func coresCfg(n int) Config {
	cfg := testCfg()
	cfg.Cores = n
	return cfg
}

// TestReplyPathPins pins the exact statistics and the cycle-stamped
// transaction and op stream of workloads that reach the rarer replies
// to a thread and requests at the directory: a commit that waits for
// validation and is finalized by a validation response, or aborted
// while it waits; a begin whose lock subscription finds the lock taken;
// a lock fallback stretched by a lock burst and an STM fallback, with
// their exact FallbackBodyCycles; power-token acquires that fail and
// that succeed; a sharer upgrade and queued requests restarted at
// unblock; force-NACKed requests; a forward to an owner that silently
// dropped its copy; and a forwarded probe served from the writeback
// buffer.
func TestReplyPathPins(t *testing.T) {
	retryOnce := htm.Traits{Retries: 1}
	stm := withFaults(t, coresCfg(3), "lockburst:p=1")
	stm.Fallback.Kind = FallbackSTM
	runPins(t, []pinCase{
		{"commit-wait", core.NewCHATS(), coresCfg(4), &commitWaitWL{},
			"{System:CHATS Workload:commit-wait Cycles:784 Commits:3 Aborts:1 ByCause:[0 1 0 0 0 0 0 0] Fallbacks:0 PowerAcqs:0 ConflictedCommitted:1 ConflictedAborted:1 ForwarderCommitted:1 ForwarderAborted:0 ConsumerCommitted:2 ConsumerAborted:1 SpecRespsSent:13 SpecRespsConsumed:3 Validations:12 ValidationsOK:2 Flits:197 Messages:89 L1Hits:5 L1Misses:10 DirFwds:18 DirInvs:0 ProbeConflicts:14 DecAbort:1 DecSpec:13 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:1 CMHotNacks:0 FaultsInjected:0}",
			"4c11ad9500f52386"},
		{"lock-subscribe", core.NewBaselineWith(retryOnce), coresCfg(4), &incrementWL{iters: 3, work: 10},
			"{System:Baseline Workload:increment Cycles:1832 Commits:9 Aborts:7 ByCause:[0 6 0 0 0 0 1 0] Fallbacks:3 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:6 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:491 Messages:219 L1Hits:65 L1Misses:24 DirFwds:21 DirInvs:20 ProbeConflicts:6 DecAbort:6 DecSpec:0 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:273 CMWaits:6 CMHotNacks:0 FaultsInjected:0}",
			"bc63fd70882922b8"},
		{"lockburst", core.NewBaselineWith(retryOnce), withFaults(t, coresCfg(3), "lockburst:p=1"), &incrementWL{iters: 3, work: 50},
			"{System:Baseline Workload:increment Cycles:2662 Commits:7 Aborts:5 ByCause:[0 5 0 0 0 0 0 0] Fallbacks:2 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:5 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:315 Messages:139 L1Hits:62 L1Misses:16 DirFwds:13 DirInvs:12 ProbeConflicts:5 DecAbort:5 DecSpec:0 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:1262 CMWaits:5 CMHotNacks:0 FaultsInjected:2}",
			"00d838ea5967a6bf"},
		{"stm", core.NewBaselineWith(retryOnce), stm, &incrementWL{iters: 3, work: 50},
			"{System:Baseline Workload:increment Cycles:3039 Commits:7 Aborts:7 ByCause:[0 5 0 0 0 0 2 0] Fallbacks:2 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:7 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:419 Messages:187 L1Hits:120 L1Misses:23 DirFwds:17 DirInvs:17 ProbeConflicts:7 DecAbort:7 DecSpec:0 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:2 FallbackSTMRetries:1 FallbackElideExtends:0 FallbackBodyCycles:2726 CMWaits:5 CMHotNacks:0 FaultsInjected:2}",
			"a938690e45bc7e84"},
		{"power", core.NewPCHATS(), coresCfg(4), &incrementWL{iters: 3, work: 50},
			"{System:PCHATS Workload:increment Cycles:2409 Commits:12 Aborts:18 ByCause:[0 18 0 0 0 0 0 0] Fallbacks:0 PowerAcqs:8 ConflictedCommitted:5 ConflictedAborted:18 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:478 Messages:230 L1Hits:92 L1Misses:24 DirFwds:19 DirInvs:26 ProbeConflicts:24 DecAbort:18 DecSpec:0 DecNack:6 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:5 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:18 CMHotNacks:0 FaultsInjected:0}",
			"080a8bfbe56e4af0"},
		{"silent-drop", core.NewCHATS(), withFaults(t, oneLineL1(2), "nack:p=0.5"), &silentDropWL{},
			"{System:CHATS Workload:silent-drop Cycles:816 Commits:2 Aborts:0 ByCause:[0 0 0 0 0 0 0 0] Fallbacks:0 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:0 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:58 Messages:30 L1Hits:2 L1Misses:9 DirFwds:3 DirInvs:0 ProbeConflicts:0 DecAbort:0 DecSpec:0 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:3 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:0 CMHotNacks:0 FaultsInjected:3}",
			"297796dcf7a3aab6"},
		{"wb-probe", core.NewBaseline(), oneLineL1(2), &wbProbeWL{},
			"{System:Baseline Workload:wb-probe Cycles:424 Commits:0 Aborts:0 ByCause:[0 0 0 0 0 0 0 0] Fallbacks:0 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:0 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:32 Messages:12 L1Hits:0 L1Misses:3 DirFwds:1 DirInvs:0 ProbeConflicts:0 DecAbort:0 DecSpec:0 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:0 CMHotNacks:0 FaultsInjected:0}",
			"4526f53da228b0ab"},
	})
}
