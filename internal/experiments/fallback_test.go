package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/runstore"
	"chats/internal/workloads"
)

// The acceptance criterion of the fallback matrix: under a lockburst
// soak the STM fallback path keeps >= 2 cores inside fallback bodies
// concurrently while the global lock admits at most one — graceful
// degradation instead of full serialization.
func TestFallbackMatrixGracefulDegradation(t *testing.T) {
	p := Params{Size: workloads.Tiny, Machine: machine.DefaultConfig(), Workers: 4}
	p.Machine.CycleLimit = 200_000_000
	rep := FallbackMatrix(p, []string{"cadd"})
	for _, c := range rep.Failures() {
		t.Fatalf("cell %s/%s/%s failed: %v", c.Fallback, c.System, c.Bench, c.Err)
	}
	if want := len(FallbackMatrixPaths()) * 2; len(rep.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), want)
	}
	for _, k := range []core.Kind{core.KindCHATS, core.KindBaseline} {
		lock := rep.Cell("lock", k, "cadd")
		stm := rep.Cell("stm:locks=256", k, "cadd")
		if lock == nil || stm == nil {
			t.Fatalf("%s: matrix cells missing", k)
		}
		if lock.Stats.Fallbacks == 0 || stm.Stats.Fallbacks == 0 {
			t.Fatalf("%s: matrix never exercised the fallback paths (lock %d, stm %d)",
				k, lock.Stats.Fallbacks, stm.Stats.Fallbacks)
		}
		if c := lock.Concurrency(); c > 1.0 {
			t.Errorf("%s: global lock fallback concurrency %.2f > 1 — the lock must serialize", k, c)
		}
		if c := stm.Concurrency(); c < 2.0 {
			t.Errorf("%s: stm fallback concurrency %.2f < 2 — bodies are not overlapping", k, c)
		}
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "fb-conc") || !strings.Contains(buf.String(), "clean") {
		t.Errorf("report rendering off:\n%s", buf.String())
	}
}

// The matrix must be bit-deterministic in the worker count, like the
// fault soak.
func TestFallbackMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the matrix twice")
	}
	base := Params{Size: workloads.Tiny, Machine: machine.DefaultConfig()}
	base.Machine.CycleLimit = 200_000_000
	p1, pn := base, base
	p1.Workers = 1
	pn.Workers = 4
	r1 := FallbackMatrix(p1, []string{"cadd"})
	rn := FallbackMatrix(pn, []string{"cadd"})
	if len(r1.Cells) != len(rn.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(r1.Cells), len(rn.Cells))
	}
	for i := range r1.Cells {
		a, b := r1.Cells[i], rn.Cells[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("cell %s/%s/%s errored: j1=%v jN=%v", a.Fallback, a.System, a.Bench, a.Err, b.Err)
		}
		if a.Stats != b.Stats {
			t.Errorf("cell %s/%s/%s differs between -j1 and -j4", a.Fallback, a.System, a.Bench)
		}
	}
}

// FaultSoak and FallbackMatrix must persist one record per clean cell
// when a Recorder is attached (the -store wiring), with the fallback
// counters present.
func TestSoakAndMatrixRecord(t *testing.T) {
	// The sweep workers call the recorder concurrently.
	var mu sync.Mutex
	var recs []runstore.Record
	p := Params{
		Size:    workloads.Tiny,
		Machine: machine.DefaultConfig(),
		Recorder: func(r runstore.Record) {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		},
	}
	p.Machine.CycleLimit = 200_000_000
	rep := FallbackMatrix(p, []string{"cadd"})
	if n := len(rep.Cells) - len(rep.Failures()); len(recs) != n {
		t.Fatalf("matrix recorded %d cells, %d ran clean", len(recs), n)
	}
	sawSTM, sawKnob := false, 0
	for _, r := range recs {
		if _, ok := r.Counters["fallback_body_cycles"]; !ok {
			t.Fatalf("record %s/%s lacks fallback_body_cycles", r.System, r.Workload)
		}
		if strings.Contains(r.Config, "fb=") {
			sawKnob++
		}
		if r.Counters["fallback_stm_commits"] > 0 {
			sawSTM = true
		}
	}
	// The lock path is the zero config (its knob key is empty by design);
	// the stm and elide cells must carry theirs.
	if want := len(recs) * 2 / 3; sawKnob != want {
		t.Errorf("%d of %d records carry a fallback knob key, want %d", sawKnob, len(recs), want)
	}
	if !sawSTM {
		t.Error("no record carries STM fallback commits")
	}

	recs = nil
	soak := FaultSoak(p, []string{"cadd"})
	if n := len(soak.Cells) - len(soak.Failures()); len(recs) != n {
		t.Fatalf("soak recorded %d cells, %d ran clean", len(recs), n)
	}
	for _, r := range recs {
		if r.Counters["faults_injected"] == 0 && r.Counters["commits"] == 0 {
			t.Errorf("soak record %s/%s looks empty", r.System, r.Workload)
		}
	}
}

// The hot-line override is the one contention-management knob kept
// beside the paper's retry loop, on the strength of this number:
// requester-wins kmeans-h (small, seed 1) runs in 29,190 cycles with
// -hotline 8, against 80,553 with the default loop alone.
func TestHotLineBeatsDefaultOnKmeansH(t *testing.T) {
	cycles := func(hotLine int) uint64 {
		p := Params{Size: workloads.Small, Machine: machine.DefaultConfig()}
		p.Machine.HotLine = hotLine
		st, err := NewSuite(p).Run(core.KindBaseline, nil, "kmeans-h")
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	def, hot := cycles(0), cycles(8)
	if def != 80_553 || hot != 29_190 {
		t.Fatalf("kmeans-h baseline cycles: default %d, -hotline 8 %d; want 80553, 29190", def, hot)
	}
}

// The hot-line table halves every line's heat after each 1,024 conflict
// aborts. Requester-wins llb-h (small, seed 1) under -hotline 16 passes
// two such decays; with decay disabled the same run takes 661,665
// cycles, so the pin fails if decay stops running or changes.
func TestHotLineDecayPinned(t *testing.T) {
	p := Params{Size: workloads.Small, Machine: machine.DefaultConfig()}
	p.Machine.HotLine = 16
	st, err := NewSuite(p).Run(core.KindBaseline, nil, "llb-h")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 662_243 || st.Aborts != 4_758 || st.Fallbacks != 281 {
		t.Fatalf("llb-h baseline -hotline 16: %d cycles, %d aborts, %d fallbacks; want 662243, 4758, 281",
			st.Cycles, st.Aborts, st.Fallbacks)
	}
}
