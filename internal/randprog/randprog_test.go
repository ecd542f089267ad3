package randprog_test

import (
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/randprog"
)

func mustParse(t *testing.T, spec string) *randprog.Program {
	t.Helper()
	p, err := randprog.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"rp1;cores=1;pool=2;pack=1;priv=0|[l0,s1+5]",
		"rp1;cores=2;pool=4;pack=2;priv=2|[l0,a0+3,w10] S0+7 L3|W25 [s2+1] [l1,l2,a3+9,w1]",
		"rp1;cores=3;pool=6;pack=1;priv=1|||[a5+2]", // empty core programs
	}
	for _, spec := range specs {
		p := mustParse(t, spec)
		if got := p.String(); got != spec {
			t.Errorf("round trip:\n in  %s\n out %s", spec, got)
		}
		// And String -> Parse -> String is a fixpoint.
		q := mustParse(t, p.String())
		if q.String() != p.String() {
			t.Errorf("String not a fixpoint for %s", spec)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"rp2;cores=1;pool=1;pack=1;priv=0|",
		"rp1;cores=2;pool=2;pack=1;priv=0|[l0]",      // core count mismatch
		"rp1;cores=1;pool=2;pack=1;priv=0|[l5]",      // slot out of pool
		"rp1;cores=1;pool=2;pack=1;priv=0|S0+1",      // private store with priv=0
		"rp1;cores=1;pool=2;pack=9;priv=0|[l0]",      // pack too large
		"rp1;cores=1;pool=2;pack=1;priv=0|[x0]",      // unknown op
		"rp1;cores=1;pool=2;pack=1;priv=0|[l0,s1]",   // store missing +arg
		"rp1;cores=1;pool=2;pack=1;priv=0|[l0 s1+2]", // space inside block
		"rp1;cores=0;pool=2;pack=1;priv=0",           // no cores
		"rp1;cores=1;pool=2;pack=1;priv=0|Q9",        // unknown action
		"rp1;cores=1;pool=4097;pack=1;priv=0|L0",     // pool above the bound
	}
	for _, spec := range bad {
		if _, err := randprog.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestParseRejectsHugePool: Setup writes every pool slot, so a spec
// with a pool of 2^63-1 slots used to hang the process. Parse must turn
// it away with an error instead, while the bound itself still parses.
func TestParseRejectsHugePool(t *testing.T) {
	spec := "rp1;cores=1;pool=9223372036854775807;pack=1;priv=0|L0"
	if p, err := randprog.Parse(spec); err == nil {
		t.Fatalf("Parse(%q) accepted a pool of %d slots", spec, p.Pool)
	} else if !strings.Contains(err.Error(), "pool") {
		t.Fatalf("Parse(%q) error %q does not name the pool", spec, err)
	}
	mustParse(t, "rp1;cores=1;pool=4096;pack=8;priv=0|L4095")
}

func TestGenerateDeterministic(t *testing.T) {
	g := randprog.Preset(1)
	a := randprog.Generate(7, g)
	b := randprog.Generate(7, g)
	if a.String() != b.String() {
		t.Fatal("same seed generated different programs")
	}
	c := randprog.Generate(8, g)
	if a.String() == c.String() {
		t.Fatal("different seeds generated identical programs")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.Commutative() {
		t.Fatal("preset (AddFrac=1) must generate commutative programs")
	}
	// Generated programs must themselves round-trip.
	q := mustParse(t, a.String())
	if q.String() != a.String() {
		t.Fatal("generated program does not round-trip")
	}
}

func TestGenerateStoresWhenRequested(t *testing.T) {
	g := randprog.Preset(0)
	g.AddFrac = 0 // all writes become order-sensitive stores
	p := randprog.Generate(3, g)
	if p.Commutative() {
		t.Fatal("AddFrac=0 program reported commutative")
	}
}

func TestReplaySemantics(t *testing.T) {
	// Two cores, one shared slot; core 1 blind-overwrites the slot, so
	// commit order decides the final state. (A store fed by a single
	// load of the same slot is additive in the loaded value and would
	// incidentally commute with the add.)
	p := mustParse(t, "rp1;cores=2;pool=1;pack=1;priv=1|[a0+5] S0+9|[s0+1]")
	serial, err := p.Replay(p.SerialOrder())
	if err != nil {
		t.Fatal(err)
	}
	rev, err := p.Replay([]randprog.BlockRef{{Core: 1}, {Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Shared[0] == rev.Shared[0] {
		t.Fatal("order-sensitive program replayed identically in both orders")
	}
	if serial.Priv[0][0] != 9 || rev.Priv[0][0] != 9 {
		t.Fatal("private store lost in replay")
	}
	// A commutative program replays identically in any order.
	q := mustParse(t, "rp1;cores=2;pool=1;pack=1;priv=0|[a0+5]|[l0,a0+3]")
	s1, _ := q.Replay(q.SerialOrder())
	s2, _ := q.Replay([]randprog.BlockRef{{Core: 1}, {Core: 0}})
	if s1.Shared[0] != s2.Shared[0] {
		t.Fatal("commutative program diverged across orders")
	}
}

func TestReplayRejectsBadOrders(t *testing.T) {
	p := mustParse(t, "rp1;cores=1;pool=1;pack=1;priv=0|[a0+1] [a0+2]")
	if _, err := p.Replay([]randprog.BlockRef{{Core: 0, Index: 0}}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := p.Replay([]randprog.BlockRef{{Core: 0, Index: 0}, {Core: 0, Index: 0}}); err == nil {
		t.Fatal("repeated block accepted")
	}
	if _, err := p.Replay([]randprog.BlockRef{{Core: 0, Index: 0}, {Core: 1, Index: 0}}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

func TestNumOpsAndClone(t *testing.T) {
	p := mustParse(t, "rp1;cores=2;pool=2;pack=1;priv=1|[l0,a1+2] S0+3|W5 [w7]")
	if got := p.NumOps(); got != 5 {
		t.Fatalf("NumOps = %d, want 5", got)
	}
	q := p.Clone()
	q.Seq[0][0].Ops[0].Slot = 1
	if p.Seq[0][0].Ops[0].Slot != 0 {
		t.Fatal("Clone shares op storage")
	}
}

// The fixed-program workload must run and self-check on every system
// (commutative program → exact shared-state check inside Check).
func TestWorkloadOnMachine(t *testing.T) {
	g := randprog.Preset(0)
	p := randprog.Generate(11, g)
	for _, kind := range core.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			policy, err := core.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.DefaultConfig()
			cfg.Cores = p.Cores
			cfg.CycleLimit = 100_000_000
			m, err := machine.New(cfg, policy)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run(randprog.NewWorkload(p.Clone()))
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits+st.Fallbacks != uint64(p.NumBlocks(-1)) {
				t.Fatalf("commits %d + fallbacks %d != %d blocks",
					st.Commits, st.Fallbacks, p.NumBlocks(-1))
			}
		})
	}
}

// Family mode adapts the program to the machine's thread count.
func TestFamilyAdaptsToCores(t *testing.T) {
	g := randprog.Preset(2) // wants 16 cores
	w := randprog.Family("randprog", 1, g)
	policy, _ := core.New(core.KindCHATS)
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.CycleLimit = 100_000_000
	m, err := machine.New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	if w.Program().Cores != 4 {
		t.Fatalf("family program has %d cores on a 4-core machine", w.Program().Cores)
	}
	if !strings.HasPrefix(w.Program().String(), "rp1;cores=4;") {
		t.Fatalf("unexpected spec: %s", w.Program().String())
	}
}
