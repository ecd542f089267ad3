package experiments

import (
	"bytes"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/machine"
	"chats/internal/workloads"
)

// The canonical soak must come back clean: every system × micro bench
// under the full fault plan with invariants and the watchdog armed.
func TestFaultSoakClean(t *testing.T) {
	if testing.Short() {
		t.Skip("fault soak is the long path; covered by the full run")
	}
	p := Params{
		Size:            workloads.Tiny,
		Machine:         machine.DefaultConfig(),
		Workers:         4,
		WatchdogCycles:  5_000_000,
		CellCycleBudget: 200_000_000,
	}
	rep := FaultSoak(p, nil)
	if want := len(mainSystems()) * len(workloads.MicroNames()); len(rep.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Failures() {
		t.Errorf("cell %s/%s failed: %v", c.System, c.Bench, c.Err)
	}
	var injected uint64
	for _, c := range rep.Cells {
		injected += c.Stats.FaultsInjected
	}
	if injected == 0 {
		t.Fatal("soak injected no faults")
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "all") || !strings.Contains(buf.String(), "clean") {
		t.Errorf("report verdict missing:\n%s", buf.String())
	}
}

// A validation response that arrives after its attempt aborted must not
// strand the next attempt's commit. These soak seeds each have a CHATS
// core call Commit while the dead attempt's validation is in flight;
// before the stale response re-issued validation, the core sat in
// Committing forever and the run panicked at its end.
func TestFaultSoakStaleValidationCommits(t *testing.T) {
	plan := faults.SoakPlan()
	for _, seed := range []uint64{2, 21, 24, 45} {
		p := Params{Size: workloads.Small, Machine: machine.DefaultConfig(), Faults: &plan}
		p.Machine.Seed = seed
		st, err := NewSuite(p).Run(core.KindCHATS, nil, "cadd")
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if st.FaultsInjected == 0 {
			t.Errorf("seed %d: no faults injected", seed)
		}
	}
}

// A failing cell must carry its identity and the fault plan in the error
// so the exact run can be reproduced from the message alone.
func TestCellErrorCarriesIdentityAndPlan(t *testing.T) {
	plan := faults.SoakPlan()
	cfg := machine.DefaultConfig()
	p := Params{
		Size:            workloads.Tiny,
		Machine:         cfg,
		Faults:          &plan,
		CellCycleBudget: 1_000, // far too small: the cell must die on the cycle limit
	}
	s := NewSuite(p)
	_, err := s.Run(core.KindCHATS, nil, "cadd")
	if err == nil {
		t.Fatal("expected a cycle-budget failure")
	}
	msg := err.Error()
	for _, want := range []string{"chats", "cadd", "seed", "spurious"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q: %s", want, msg)
		}
	}
}

// The soak must be bit-deterministic in the worker count: the same seed
// produces identical per-cell stats (fault counts included) whether the
// grid runs on one worker or many.
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the soak column twice")
	}
	base := Params{
		Size:           workloads.Tiny,
		Machine:        machine.DefaultConfig(),
		WatchdogCycles: 10_000_000,
	}
	p1 := base
	p1.Workers = 1
	pn := base
	pn.Workers = 4
	r1 := FaultSoak(p1, []string{"cadd"})
	rn := FaultSoak(pn, []string{"cadd"})
	if len(r1.Cells) != len(rn.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(r1.Cells), len(rn.Cells))
	}
	for i := range r1.Cells {
		a, b := r1.Cells[i], rn.Cells[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("cell %s/%s errored: j1=%v jN=%v", a.System, a.Bench, a.Err, b.Err)
		}
		if a.Stats != b.Stats {
			t.Errorf("cell %s/%s differs between -j1 and -j4:\nj1 %+v\njN %+v",
				a.System, a.Bench, a.Stats, b.Stats)
		}
	}
}

// Params.Faults must change the cells' execution (and the stat must fold
// through averaging) while Params.Invariants rides along cleanly.
func TestParamsFaultsAndInvariants(t *testing.T) {
	plan := faults.SoakPlan()
	p := Params{
		Size:       workloads.Tiny,
		Machine:    machine.DefaultConfig(),
		Seeds:      2,
		Faults:     &plan,
		Invariants: true,
	}
	s := NewSuite(p)
	st, err := s.Run(core.KindCHATS, nil, "cadd")
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("faulted run reports zero injected faults")
	}
}

// The main figure matrix must also hold up with the invariant checker
// attached to every cell: zero violations across all systems and
// benches (acceptance: the clean sweep self-checks, not just the soak).
func TestFigureSweepWithInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix sweep; covered by the full run")
	}
	p := Params{
		Size:       workloads.Tiny,
		Machine:    machine.DefaultConfig(),
		Workers:    4,
		Invariants: true,
	}
	p.Machine.CycleLimit = 200_000_000
	s := NewSuite(p)
	if _, err := s.Fig4(); err != nil {
		t.Fatalf("Fig4 with invariants on: %v", err)
	}
}
