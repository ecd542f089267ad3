package difftest_test

import (
	"reflect"
	"testing"

	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/randprog"
)

// smokeGen is the campaign configuration the smoke tests share: small
// programs, mixed adds and order-sensitive stores.
func smokeGen() randprog.GenConfig {
	g := randprog.Preset(0)
	g.AddFrac = 0.5
	return g
}

// TestFuzzSmoke is the CI entry point: a fixed-seed campaign over all
// five systems with the invariant checker attached must be green.
func TestFuzzSmoke(t *testing.T) {
	rep := difftest.Fuzz(difftest.FuzzOptions{Start: 1, N: 6, Gen: smokeGen()})
	if !rep.Ok() {
		t.Fatalf("%s\nfirst: %+v", rep.Summary(), rep.Failures[0])
	}
	if rep.Ran != 6 {
		t.Fatalf("ran %d of 6", rep.Ran)
	}
}

// The campaign report must be bit-identical at any parallelism.
func TestFuzzDeterminismAcrossJobs(t *testing.T) {
	opts := difftest.FuzzOptions{Start: 3, N: 6, Gen: smokeGen()}
	opts.Jobs = 1
	a := difftest.Fuzz(opts)
	opts.Jobs = 4
	b := difftest.Fuzz(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fuzz diverged across -j:\n-j1: %+v\n-j4: %+v", a, b)
	}
	if a.Digest == "" {
		t.Fatal("the report has no digest")
	}
}

// The digest covers simulated results, not just the pass count: a
// campaign on another machine seed passes the same programs with other
// cycles and counters, and must hash differently.
func TestFuzzDigestCoversSimulatedResults(t *testing.T) {
	opts := difftest.FuzzOptions{Start: 3, N: 4, Gen: smokeGen(), Jobs: 2}
	a := difftest.Fuzz(opts)
	opts.Check.Seed = 99
	b := difftest.Fuzz(opts)
	if !a.Ok() || !b.Ok() || a.Ran != b.Ran {
		t.Fatalf("campaigns: %s; %s", a.Summary(), b.Summary())
	}
	if a.Digest == b.Digest {
		t.Fatalf("machine seeds 0 and 99 share the digest %s", a.Digest)
	}
}

// Fault injection must not break the oracle: faulted runs abort and
// retry more, but stay serializable and fully accounted.
func TestFuzzUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault fuzz skipped in -short mode")
	}
	plan := faults.SoakPlan()
	rep := difftest.Fuzz(difftest.FuzzOptions{
		Start: 1, N: 4, Gen: smokeGen(),
		Check: difftest.Options{Faults: &plan},
	})
	if !rep.Ok() {
		t.Fatalf("%s\nfirst: %+v", rep.Summary(), rep.Failures[0])
	}
}

// brokenOpts cripples value-based validation on CHATS and disables the
// structural checker, leaving the differential memory oracle alone to
// catch the resulting stale-data commits.
func brokenOpts() difftest.Options {
	return difftest.Options{
		Systems:      []core.Kind{core.KindCHATS},
		NoInvariants: true,
		Wrap:         func(k core.Kind, p htm.Policy) htm.Policy { return difftest.SkipValidation(p) },
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

// The same hunt through the Fuzz driver: failures carry minimized
// specs.
func TestFuzzReportsMinimizedFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("minimizing fuzz skipped in -short mode")
	}
	g := randprog.Preset(1)
	g.AddFrac = 0.5
	g.ChainFrac = 0.6
	rep := difftest.Fuzz(difftest.FuzzOptions{
		Start: 1, N: 3, Gen: g, Check: brokenOpts(),
		Minimize: true, MinimizeBudget: 300,
	})
	if rep.Ok() {
		t.Fatal("broken policy produced a green campaign")
	}
	f := rep.Failures[0]
	if f.MinSpec == "" || f.MinOps == 0 || f.MinErr == "" {
		t.Fatalf("failure not minimized: %+v", f)
	}
	if f.MinOps > 16 {
		t.Fatalf("minimized reproducer has %d ops: %s", f.MinOps, f.MinSpec)
	}
}

// SkipValidation must be harmless on a system that never forwards: no
// false positives from the oracle itself.
func TestSkipValidationHarmlessOnBaseline(t *testing.T) {
	g := smokeGen()
	p := randprog.Generate(5, g)
	err := difftest.Check(p, difftest.Options{
		Systems: []core.Kind{core.KindBaseline},
		Wrap:    func(k core.Kind, pol htm.Policy) htm.Policy { return difftest.SkipValidation(pol) },
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
