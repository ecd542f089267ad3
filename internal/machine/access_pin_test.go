package machine

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
)

// wbReinstallWL runs on a one-line L1, so every miss evicts the line
// before it. Thread 0 dirties line a and evicts it with a load of b;
// while a's writeback is still in flight, a plain load, a plain store
// and a transactional store find it in the writeback buffer and
// reinstall it. The transactional store then finds the reinstalled line
// dirty and writes it back before its first speculative write.
type wbReinstallWL struct{ a, b mem.Addr }

func (w *wbReinstallWL) Name() string { return "wb-reinstall" }
func (w *wbReinstallWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.b = wd.Alloc.LineAligned(1)
}
func (w *wbReinstallWL) Thread(ctx Ctx, tid int) {
	if tid != 0 {
		return
	}
	ctx.Store(w.a, 1)
	ctx.Load(w.b)
	ctx.Load(w.a) // reinstalled by a load
	ctx.Load(w.b)
	ctx.Store(w.a, 2) // reinstalled by a store
	ctx.Atomic(func(tx Tx) {
		tx.Store(w.a, 3) // the lock subscription evicted a: reinstalled, then written back
	})
}
func (w *wbReinstallWL) Check(wd *World) error {
	if v := wd.Mem.ReadWord(w.a); v != 3 {
		return fmt.Errorf("a = %d, want 3", v)
	}
	return nil
}

// specCapacityWL runs on a one-line L1: thread 1's transaction holds
// line y in its write set when thread 0 forwards it line a, so the
// speculative line has nowhere to go and the consumer takes a capacity
// abort.
type specCapacityWL struct{ a, y mem.Addr }

func (w *specCapacityWL) Name() string { return "spec-capacity" }
func (w *specCapacityWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.y = wd.Alloc.LineAligned(1)
}
func (w *specCapacityWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.a, 1)
			tx.Work(3000)
		})
	case 1:
		ctx.Work(500)
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.y, 1)
			tx.Store(w.y, tx.Load(w.a)+1)
		})
	}
}
func (w *specCapacityWL) Check(wd *World) error {
	if v := wd.Mem.ReadWord(w.a); v != 1 {
		return fmt.Errorf("a = %d, want 1", v)
	}
	return nil
}

// picRaceWL: thread 1 loads line a, which thread 0 holds in its write
// set, while thread 2's load of x reaches thread 1's write set. Thread
// 1 takes a chain position as thread 2's producer while its own request
// is in flight, so thread 0's SpecResp, priced for a requester outside
// any chain, arrives at or below thread 1's new position and the
// consumer rejects it as a cycle race.
type picRaceWL struct{ a, x mem.Addr }

func (w *picRaceWL) Name() string { return "pic-race" }
func (w *picRaceWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.x = wd.Alloc.LineAligned(1)
}
func (w *picRaceWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.a, 1)
			tx.Work(3000)
		})
	case 1:
		ctx.Work(500)
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.x, 1)
			tx.Store(w.x, tx.Load(w.a)+1)
		})
	case 2:
		ctx.Work(600)
		ctx.Atomic(func(tx Tx) {
			tx.Load(w.x)
		})
	}
}
func (w *picRaceWL) Check(wd *World) error { return nil }

// powerForwardPolicy is PCHATS, except that a producer also forwards
// to a power requester, so a power transaction receives SpecResps and
// PCHATS's AcceptSpec answers them with a retry.
type powerForwardPolicy struct{ *core.PCHATS }

func (p powerForwardPolicy) DecideProbe(local *htm.TxState, pc htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	if pc.Req.Power && pc.Forwardable {
		return htm.DecideSpec, coherence.PiCInit
	}
	return p.PCHATS.DecideProbe(local, pc)
}

// powerRetryWL: thread 2 kills thread 1's first attempt, so its second
// runs with the power token; it then loads line a from thread 0's write
// set and retries each SpecResp until its VSB retry budget runs out.
type powerRetryWL struct{ a, b mem.Addr }

func (w *powerRetryWL) Name() string { return "power-retry" }
func (w *powerRetryWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.b = wd.Alloc.LineAligned(1)
}
func (w *powerRetryWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Work(1200)
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.a, 1)
			tx.Work(4000)
		})
	case 1:
		ctx.Atomic(func(tx Tx) {
			tx.Load(w.b)
			tx.Work(1500)
			tx.Store(w.b, tx.Load(w.a)+1)
		})
	case 2:
		ctx.Work(700)
		ctx.Store(w.b, 9)
	}
}
func (w *powerRetryWL) Check(wd *World) error { return nil }

// oneLineL1 is a cores-core test machine whose L1 holds a single line,
// so every miss evicts the line before it.
func oneLineL1(cores int) Config {
	cfg := testCfg()
	cfg.Cores = cores
	cfg.L1Size = mem.LineSize
	cfg.L1Ways = 1
	return cfg
}

// TestAccessBranchPins pins the exact statistics and the cycle-stamped
// transaction and op stream of demand-access branches no other machine
// test reaches: the writeback-buffer reinstall, a capacity abort on a
// speculative install, a consumer's PiC-race rejection and a power
// transaction's SpecResp retry. Two branches stay out of reach: a lock
// CAS is never NACKed, because a non-transactional request always wins
// its probes, and it finds the lock line in the writeback buffer only
// if an install lands between the lock load and the CAS one L1 latency
// later, which no demand access of its core can do.
func TestAccessBranchPins(t *testing.T) {
	threeCores := testCfg()
	threeCores.Cores = 3
	fewRetries := core.NewCHATSWith(htm.Traits{Retries: 2, VSBSize: 4, ValidationInterval: 50, ForwardMode: htm.ForwardRrestrictW})
	runPins(t, []pinCase{
		{"wb-reinstall", core.NewCHATS(), oneLineL1(1), &wbReinstallWL{},
			"{System:CHATS Workload:wb-reinstall Cycles:530 Commits:1 Aborts:0 ByCause:[0 0 0 0 0 0 0 0] Fallbacks:0 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:0 ForwarderCommitted:0 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:0 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:49 Messages:17 L1Hits:2 L1Misses:7 DirFwds:0 DirInvs:0 ProbeConflicts:0 DecAbort:0 DecSpec:0 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:0 CMHotNacks:0 FaultsInjected:0}",
			"b2a2c917fe9f0c57"},
		{"spec-capacity", fewRetries, oneLineL1(2), &specCapacityWL{},
			"{System:CHATS Workload:spec-capacity Cycles:6516 Commits:1 Aborts:4 ByCause:[0 1 3 0 0 0 0 0] Fallbacks:1 PowerAcqs:0 ConflictedCommitted:0 ConflictedAborted:1 ForwarderCommitted:0 ForwarderAborted:1 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:3 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:149 Messages:65 L1Hits:6 L1Misses:18 DirFwds:7 DirInvs:0 ProbeConflicts:4 DecAbort:1 DecSpec:3 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:80 CMWaits:4 CMHotNacks:0 FaultsInjected:0}",
			"b5e632e7dc8a9c1c"},
		{"pic-race", core.NewCHATS(), threeCores, &picRaceWL{},
			"{System:CHATS Workload:pic-race Cycles:4476 Commits:3 Aborts:11 ByCause:[0 0 0 6 5 0 0 0] Fallbacks:0 PowerAcqs:0 ConflictedCommitted:2 ConflictedAborted:5 ForwarderCommitted:2 ForwarderAborted:5 ConsumerCommitted:0 ConsumerAborted:6 SpecRespsSent:11 SpecRespsConsumed:6 Validations:6 ValidationsOK:0 Flits:252 Messages:124 L1Hits:26 L1Misses:23 DirFwds:24 DirInvs:0 ProbeConflicts:11 DecAbort:0 DecSpec:11 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:5 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:11 CMHotNacks:0 FaultsInjected:0}",
			"0910552558b772a1"},
		{"power-retry", powerForwardPolicy{core.NewPCHATS()}, oneLineL1(3), &powerRetryWL{},
			"{System:PCHATS Workload:power-retry Cycles:6701 Commits:2 Aborts:2 ByCause:[0 1 0 0 0 1 0 0] Fallbacks:0 PowerAcqs:1 ConflictedCommitted:1 ConflictedAborted:1 ForwarderCommitted:1 ForwarderAborted:0 ConsumerCommitted:0 ConsumerAborted:0 SpecRespsSent:16 SpecRespsConsumed:0 Validations:0 ValidationsOK:0 Flits:229 Messages:109 L1Hits:4 L1Misses:27 DirFwds:21 DirInvs:1 ProbeConflicts:17 DecAbort:1 DecSpec:16 DecNack:0 SpecDropStale:0 SpecDropVSB:0 SpecDropReject:0 NackRetries:0 FallbackSTMCommits:0 FallbackSTMRetries:0 FallbackElideExtends:0 FallbackBodyCycles:0 CMWaits:2 CMHotNacks:0 FaultsInjected:0}",
			"3891b21f4acdcadd"},
	})
}

// pinCase is one pinned run: the workload on the given machine and
// system, with its exact RunStats (%+v) and the FNV-64a digest of its
// cycle-stamped WriterTracer and op stream.
type pinCase struct {
	name   string
	policy htm.Policy
	cfg    Config
	w      Workload
	stats  string
	stream string
}

// runPins runs each case and compares its statistics and stream digest
// with the pinned ones.
func runPins(t *testing.T, cases []pinCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			m.SetTracer(opWriter{WriterTracer{W: &b}})
			st, err := m.Run(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write([]byte(b.String()))
			stats, stream := fmt.Sprintf("%+v", st), fmt.Sprintf("%016x", h.Sum64())
			if stats != tc.stats {
				t.Errorf("stats = %s\nwant    %s", stats, tc.stats)
			}
			if stream != tc.stream {
				t.Errorf("stream digest = %s, want %s; stream:\n%s", stream, tc.stream, b.String())
			}
		})
	}
}
