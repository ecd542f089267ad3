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
// pattern on its embedded event: arm, cancel, re-arm. 0 allocs/op.
func BenchmarkTimerCancelReschedule(b *testing.B) {
	var e Engine
	r := newPostBenchRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(10, &r.ev)
		e.Cancel(&r.ev)
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

// postBenchRunner is a typed payload with its own embedded event, like
// the simulator's per-core and pooled payloads.
type postBenchRunner struct {
	ev Event
	n  uint64
}

func (r *postBenchRunner) Run() { r.n++ }

func newPostBenchRunner() *postBenchRunner {
	r := &postBenchRunner{}
	r.ev.Bind(r)
	return r
}

// BenchmarkPostFire is BenchmarkScheduleFireRunner for an embedded
// event: Post plus fire, with no free list involved. 0 allocs/op.
func BenchmarkPostFire(b *testing.B) {
	var e Engine
	r := newPostBenchRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(1, &r.ev)
		e.Step()
	}
}

// TestSerialSchedZeroAllocs hard-pins the serial schedule/fire hot path
// the benchmarks above report: Engine.ScheduleRunner plus Step, and Post
// of an embedded event plus its firing, through the near wheel and
// through the far heap, must allocate nothing, or every simulated
// latency hop pays for it.
func TestSerialSchedZeroAllocs(t *testing.T) {
	var e Engine
	r := &benchRunner{}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleRunner(1, r)
		e.Step()
	}); avg != 0 {
		t.Errorf("ScheduleRunner+Step allocates %.2f per op, want 0", avg)
	}
	p := newPostBenchRunner()
	for _, delay := range []uint64{1, wheelSize + 1} {
		// The far heap's backing array grows on first use.
		e.Post(delay, &p.ev)
		e.Step()
		if avg := testing.AllocsPerRun(1000, func() {
			e.Post(delay, &p.ev)
			if _, err := e.Run(0); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("Post(%d)+Run allocates %.2f per op, want 0", delay, avg)
		}
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
