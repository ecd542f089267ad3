package chats_test

import (
	"fmt"
	"testing"

	"chats"
	"chats/internal/core"
)

// apiCounter is a minimal workload written purely against the public API.
type apiCounter struct {
	iters int
	addr  chats.Addr
}

func (c *apiCounter) Name() string { return "api-counter" }

func (c *apiCounter) Setup(w *chats.World, threads int) {
	c.addr = w.Alloc.LineAligned(1)
}

func (c *apiCounter) Thread(ctx chats.Ctx, tid int) {
	for i := 0; i < c.iters; i++ {
		ctx.Atomic(func(tx chats.Tx) {
			tx.Store(c.addr, tx.Load(c.addr)+1)
		})
	}
}

func (c *apiCounter) Check(w *chats.World) error {
	if got := w.Mem.ReadWord(c.addr); got != uint64(16*c.iters) {
		return fmt.Errorf("counter = %d, want %d", got, 16*c.iters)
	}
	return nil
}

func TestPublicAPIRun(t *testing.T) {
	for _, system := range chats.Systems() {
		cfg := chats.DefaultConfig()
		cfg.System = system
		stats, err := chats.Run(cfg, &apiCounter{iters: 10})
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		if stats.Commits == 0 {
			t.Fatalf("%s: no commits", system)
		}
		if stats.System == "" || stats.Workload != "api-counter" {
			t.Fatalf("%s: stats labels missing: %+v", system, stats)
		}
	}
}

func TestPublicAPITraitsOverride(t *testing.T) {
	traits, err := chats.SystemTraits(chats.CHATS)
	if err != nil {
		t.Fatal(err)
	}
	if traits.Retries != 32 || traits.VSBSize != 4 || traits.ValidationInterval != 50 {
		t.Fatalf("Table II CHATS defaults wrong: %+v", traits)
	}
	traits.VSBSize = 8
	cfg := chats.DefaultConfig()
	cfg.System = chats.CHATS
	cfg.Traits = &traits
	if _, err := chats.Run(cfg, &apiCounter{iters: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestParseSystem(t *testing.T) {
	k, err := chats.ParseSystem("chats")
	if err != nil || k != chats.CHATS {
		t.Fatalf("ParseSystem: %v %v", k, err)
	}
	if _, err := chats.ParseSystem("rtm"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestSystemsOrder(t *testing.T) {
	ss := chats.Systems()
	if len(ss) != 6 || ss[0] != chats.Baseline || ss[2] != chats.CHATS || ss[5] != chats.LEVC {
		t.Fatalf("Systems() = %v", ss)
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := chats.DefaultConfig()
	cfg.Machine.Cores = 0
	if _, err := chats.Run(cfg, &apiCounter{iters: 1}); err == nil {
		t.Fatal("zero cores accepted")
	}
	cfg = chats.DefaultConfig()
	cfg.System = "bogus"
	if _, err := chats.Run(cfg, &apiCounter{iters: 1}); err == nil {
		t.Fatal("bogus system accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := chats.DefaultConfig()
	cfg.System = chats.CHATS
	a, err := chats.Run(cfg, &apiCounter{iters: 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chats.Run(cfg, &apiCounter{iters: 15})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("public API runs nondeterministic:\n%+v\n%+v", a, b)
	}
}

// TestTraitsOverrideFillsDefaults: a Traits override with the flags each
// system sets for itself cleared, and the naive budget and power
// threshold left zero, builds the Table II traits and runs exactly as
// the defaults do, on every system: the With constructors restore the
// flags and fill the zero knobs with their defaults.
func TestTraitsOverrideFillsDefaults(t *testing.T) {
	for _, system := range chats.Systems() {
		def, err := chats.SystemTraits(system)
		if err != nil {
			t.Fatal(err)
		}
		cleared := def
		cleared.UsesVSB, cleared.UsesPower = false, false
		cleared.NaiveBudget, cleared.PowerAfterAborts = 0, 0
		policy, err := core.NewWith(system, cleared)
		if err != nil {
			t.Fatal(err)
		}
		if got := policy.Traits(); got != def {
			t.Errorf("%s: traits override built %+v, want %+v", system, got, def)
		}

		cfg := chats.DefaultConfig()
		cfg.System = system
		want, err := chats.Run(cfg, &apiCounter{iters: 10})
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		cfg.Traits = &cleared
		got, err := chats.Run(cfg, &apiCounter{iters: 10})
		if err != nil {
			t.Fatalf("%s with traits: %v", system, err)
		}
		if got != want {
			t.Errorf("%s: traits override ran differently:\n got %+v\nwant %+v", system, got, want)
		}
	}
}
