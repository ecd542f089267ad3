package difftest_test

import (
	"strings"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/randprog"
)

// smokeGen is the generator configuration the smoke tests share: small
// programs, mixed adds and order-sensitive stores.
func smokeGen() randprog.GenConfig {
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	return g
}

// checkSeeds runs the full oracle, with Minimize on a failure, on the
// n programs g generates from seeds start, start+1, ...
func checkSeeds(t *testing.T, start uint64, n int, g randprog.GenConfig, opts difftest.Options) {
	t.Helper()
	for seed := start; seed < start+uint64(n); seed++ {
		if err := checkMin(randprog.Generate(seed, g), opts); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestFuzzSmoke: six fixed-seed programs over all five systems with the
// invariant checker attached must pass.
func TestFuzzSmoke(t *testing.T) {
	checkSeeds(t, 1, 6, smokeGen(), difftest.Options{})
}

// Fault injection must not break the oracle: faulted runs abort and
// retry more, but stay serializable and fully accounted.
func TestFuzzUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault fuzz skipped in -short mode")
	}
	plan := faults.SoakPlan()
	checkSeeds(t, 1, 4, smokeGen(), difftest.Options{Faults: &plan})
}

// skipValidation wraps a policy so value-based validation always
// reports a match — stale forwarded data is never detected, the bug
// class the VSB exists to prevent. The differential oracle must catch
// it.
func skipValidation(p htm.Policy) htm.Policy { return brokenValidation{p} }

type brokenValidation struct{ htm.Policy }

func (p brokenValidation) ValidationCheck(local *htm.TxState, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	return p.Policy.ValidationCheck(local, isSpec, pic, true)
}

// brokenOpts cripples value-based validation on CHATS and disables the
// structural checker, leaving the differential memory oracle alone to
// catch the resulting stale-data commits.
func brokenOpts() difftest.Options {
	return difftest.Options{
		Systems:      []core.Kind{core.KindCHATS},
		NoInvariants: true,
		Wrap:         func(k core.Kind, p htm.Policy) htm.Policy { return skipValidation(p) },
	}
}

// The acceptance test of the whole subsystem: an intentionally broken
// policy (validation always reports a match) must be caught by the
// differential oracle and shrink to a reproducer of at most 16 ops
// that still fails.
func TestBrokenValidationCaughtAndMinimized(t *testing.T) {
	g := randprog.Preset(1)
	g.AddFrac = 0.5
	g.ChainFrac = 0.6 // forwarded-then-modified motifs trigger the hazard
	opts := brokenOpts()

	var failing *randprog.Program
	for seed := uint64(1); seed <= 10; seed++ {
		p := randprog.Generate(seed, g)
		if difftest.Check(p, opts) != nil {
			failing = p
			break
		}
	}
	if failing == nil {
		t.Fatal("broken validation policy not caught in 10 seeds")
	}
	min := difftest.Minimize(failing, func(q *randprog.Program) bool {
		return difftest.Check(q, opts) != nil
	}, 400)
	if err := difftest.Check(min, opts); err == nil {
		t.Fatal("minimized program no longer fails")
	}
	if ops := min.NumOps(); ops > 16 {
		t.Fatalf("reproducer has %d ops (> 16): %s", ops, min)
	}
	// The reproducer must survive its own serialization.
	rt, err := randprog.Parse(min.String())
	if err != nil {
		t.Fatal(err)
	}
	if difftest.Check(rt, opts) == nil {
		t.Fatal("round-tripped reproducer no longer fails")
	}
	t.Logf("reproducer (%d ops): %s", min.NumOps(), min)
}

// The same hunt through the fuzz targets' failure path: the message
// carries a minimized reproducer that still fails.
func TestFuzzReportsMinimizedFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("minimizing fuzz skipped in -short mode")
	}
	g := randprog.Preset(1)
	g.AddFrac = 0.5
	g.ChainFrac = 0.6
	var err error
	for seed := uint64(1); seed <= 3 && err == nil; seed++ {
		err = checkMin(randprog.Generate(seed, g), brokenOpts())
	}
	if err == nil {
		t.Fatal("broken policy passed three programs")
	}
	_, spec, ok := strings.Cut(err.Error(), "\n  reproducer: ")
	if !ok {
		t.Fatalf("failure carries no reproducer: %v", err)
	}
	min, perr := randprog.Parse(spec)
	if perr != nil {
		t.Fatalf("reproducer %q: %v", spec, perr)
	}
	if min.NumOps() > 16 {
		t.Fatalf("minimized reproducer has %d ops: %s", min.NumOps(), spec)
	}
	if difftest.Check(min, brokenOpts()) == nil {
		t.Fatalf("reproducer %s no longer fails", spec)
	}
}

// SkipValidation must be harmless on a system that never forwards: no
// false positives from the oracle itself.
func TestSkipValidationHarmlessOnBaseline(t *testing.T) {
	g := smokeGen()
	p := randprog.Generate(5, g)
	err := difftest.Check(p, difftest.Options{
		Systems: []core.Kind{core.KindBaseline},
		Wrap:    func(k core.Kind, pol htm.Policy) htm.Policy { return skipValidation(pol) },
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A handcrafted order-sensitive program must pass the oracle on every
// system, including LEVC when opted in.
func TestCheckHandcrafted(t *testing.T) {
	p, err := randprog.Parse(
		"rp1;cores=3;pool=4;pack=2;priv=1|[l0,s1+3] [a0+7] S0+5|[s0+1,w20] [l1,l0,s2+2]|[a1+4] [l2,a3+9,w10] L1")
	if err != nil {
		t.Fatal(err)
	}
	systems := append(difftest.Systems(), core.KindLEVC)
	for _, kind := range systems {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			if err := difftest.CheckSystem(p, kind, difftest.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
