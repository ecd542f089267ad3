package machine

import (
	"errors"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/mem"
)

// starveWL wedges thread 0 in an endless retry loop: a non-transactional
// writer keeps invalidating its read set mid-transaction, and the policy
// under test never falls back. Only the watchdog can end the run.
type starveWL struct {
	target mem.Addr
}

func (w *starveWL) Name() string { return "starve" }
func (w *starveWL) Setup(wd *World, threads int) {
	w.target = wd.Alloc.LineAligned(1)
}
func (w *starveWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			v := tx.Load(w.target)
			tx.Work(400) // wide window for the killer
			tx.Store(w.target, v+1)
		})
	case 1:
		for i := 0; i < 5000; i++ {
			ctx.Store(w.target, 0)
			ctx.Work(150)
		}
	}
}
func (w *starveWL) Check(wd *World) error { return nil }

// A transaction that can never win must trip the per-block attempt bound
// with a starvation LivelockError naming the core and carrying a usable
// diagnostic dump.
func TestWatchdogCatchesStarvation(t *testing.T) {
	// Retries high enough that the policy itself never falls back; the
	// watchdog must be what ends the run.
	policy := core.NewBaselineWith(htm.Traits{Retries: 1 << 30})
	cfg := testCfg()
	cfg.Cores = 2
	cfg.MaxAttempts = 15
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&starveWL{})
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want *LivelockError", err)
	}
	if ll.Core != 0 {
		t.Fatalf("starving core = %d, want 0", ll.Core)
	}
	if ll.Attempt != cfg.MaxAttempts+1 {
		t.Fatalf("attempt = %d, want %d", ll.Attempt, cfg.MaxAttempts+1)
	}
	for _, want := range []string{"attempt 16 of one atomic block", "state at cycle", "core 0", "last"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dump lacks %q:\n%s", want, err.Error())
		}
	}
}

// With every transactional directory request force-nacked and a policy
// that never falls back, the machine makes no global progress at all;
// the cycle-window watchdog must kill the run with a diagnostic dump
// instead of spinning to the cycle limit.
func TestWatchdogCatchesLivelock(t *testing.T) {
	policy := core.NewBaselineWith(htm.Traits{Retries: 1 << 30})
	cfg := testCfg()
	cfg.Cores = 4
	cfg.CycleLimit = 2_000_000_000 // far beyond the watchdog window
	cfg.WatchdogCycles = 300_000
	cfg.Faults = &faults.Plan{Nack: 1} // nack every transactional request
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&counterWL{iters: 10})
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want *LivelockError", err)
	}
	if ll.Core != -1 {
		t.Fatalf("window livelock should report Core=-1, got %d", ll.Core)
	}
	if ll.Window != cfg.WatchdogCycles {
		t.Fatalf("window = %d, want %d", ll.Window, cfg.WatchdogCycles)
	}
	// The run must die shortly after one quiet window, not at CycleLimit.
	if ll.Cycle > 10*cfg.WatchdogCycles {
		t.Fatalf("watchdog fired too late: cycle %d", ll.Cycle)
	}
	for _, want := range []string{"no commit or fallback", "state at cycle", "events pending", "last"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dump lacks %q:\n%s", want, err.Error())
		}
	}
}

// A healthy run with the watchdog armed must be unaffected: same stats
// as the unwatched run, no spurious kill.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	plain := runWL(t, core.KindCHATS, &counterWL{iters: 30}, testCfg())
	cfg := testCfg()
	cfg.WatchdogCycles = 100_000
	cfg.MaxAttempts = 1_000_000
	watched := runWL(t, core.KindCHATS, &counterWL{iters: 30}, cfg)
	if plain != watched {
		t.Fatalf("watchdog perturbed the run:\nplain   %+v\nwatched %+v", plain, watched)
	}
}

// TestWatchdogDumpKeepsRecentEvents pins the "last N events" block of a
// starvation dump byte for byte: the ring must keep recording the same
// events, in the same order and text, whatever else observes the run.
// Regenerate with go test -run TestWatchdogDumpKeepsRecentEvents -update.
func TestWatchdogDumpKeepsRecentEvents(t *testing.T) {
	policy := core.NewBaselineWith(htm.Traits{Retries: 1 << 30})
	cfg := testCfg()
	cfg.Cores = 2
	cfg.MaxAttempts = 15
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&starveWL{})
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want *LivelockError", err)
	}
	i := strings.Index(ll.Dump, "  last ")
	if i < 0 {
		t.Fatalf("dump has no recent-events block:\n%s", ll.Dump)
	}
	checkGolden(t, "starve_watchdog_events.txt", []byte(ll.Dump[i:]+"\n"))
}
