// Benchmarks pinning the scheduling hot path. The steady-state
// schedule/fire cycle must not allocate: every simulated latency hop
// (cache lookups, network messages, directory accesses) schedules one
// event, so a per-event allocation shows up directly in sweep wall
// clock. Run as:
//
//	go test -bench 'Schedule|Timer' -benchmem ./internal/sim
package sim

import "testing"

// BenchmarkScheduleFire is the core loop: one event scheduled and fired
// per iteration. With the free list engaged this is 0 allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	var e Engine
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Step()
	}
}

// BenchmarkScheduleFireDeep keeps a standing queue of 64 events so the
// heap sift cost at realistic occupancy is measured too.
func BenchmarkScheduleFireDeep(b *testing.B) {
	var e Engine
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(uint64(1+i%7), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(uint64(1+i%7), fn)
		e.Step()
	}
}

// BenchmarkTimerCancelReschedule models the machine's validation-timer
// pattern: arm, cancel, re-arm. Pure free-list churn, 0 allocs/op.
func BenchmarkTimerCancelReschedule(b *testing.B) {
	var e Engine
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(10, fn)
		e.Cancel(ev)
	}
}

// benchRunner is a typed payload like the pooled per-layer message
// structs: scheduling it must not allocate, payload included.
type benchRunner struct{ n uint64 }

func (r *benchRunner) Run() { r.n++ }

// BenchmarkScheduleFireRunner is the schedule/fire cycle with a typed
// payload instead of a closure — the production hot path after the
// dispatch refactor. 0 allocs/op including the payload.
func BenchmarkScheduleFireRunner(b *testing.B) {
	var e Engine
	r := &benchRunner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleRunner(1, r)
		e.Step()
	}
}

// BenchmarkScheduleFireRunnerDeep keeps a standing queue of 64 events at
// mixed offsets so bucket scanning at realistic occupancy is measured.
func BenchmarkScheduleFireRunnerDeep(b *testing.B) {
	var e Engine
	r := &benchRunner{}
	for i := 0; i < 64; i++ {
		e.ScheduleRunner(uint64(1+i%7), r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleRunner(uint64(1+i%7), r)
		e.Step()
	}
}

// TestSerialSchedZeroAllocs hard-pins the serial schedule/fire hot path
// the benchmarks above report: Engine.ScheduleRunner plus Step must
// allocate nothing, or every simulated latency hop pays for it.
func TestSerialSchedZeroAllocs(t *testing.T) {
	var e Engine
	r := &benchRunner{}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleRunner(1, r)
		e.Step()
	}); avg != 0 {
		t.Errorf("ScheduleRunner+Step allocates %.2f per op, want 0", avg)
	}
}

// BenchmarkScheduleFireFar exercises the overflow heap: every delay is
// past the near-wheel horizon, so events migrate heap→wheel before
// firing. Still 0 allocs/op.
func BenchmarkScheduleFireFar(b *testing.B) {
	var e Engine
	r := &benchRunner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleRunner(wheelSize+uint64(i%100), r)
		e.Step()
	}
}
