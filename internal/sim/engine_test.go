package sim

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same cycle: insertion order
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestZeroDelayRunsSameCycleAfterExisting(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(0, func() {
		got = append(got, 1)
		e.Schedule(0, func() { got = append(got, 3) })
	})
	e.Schedule(0, func() { got = append(got, 2) })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %d, want 0", e.Now())
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(5, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still reports Pending")
	}
}

// TestCancelIndexStates pins the Event.index lifecycle: >= 0 while
// queued, idxIdle (-1) once popped, from inside its own callback on,
// and idxIdle once cancelled. There is no other state.
func TestCancelIndexStates(t *testing.T) {
	var e Engine
	var fired *Event
	fired = e.Schedule(1, func() {
		if fired.index != idxIdle {
			t.Errorf("index during own callback = %d, want %d", fired.index, idxIdle)
		}
	})
	cancelled := e.Schedule(2, func() { t.Error("cancelled event fired") })
	if fired.index < 0 || cancelled.index < 0 {
		t.Fatalf("queued indices = %d, %d; want >= 0", fired.index, cancelled.index)
	}
	e.Cancel(cancelled)
	if cancelled.index != idxIdle || cancelled.Pending() {
		t.Fatalf("cancelled index = %d (pending %v), want %d", cancelled.index, cancelled.Pending(), idxIdle)
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired.index != idxIdle || fired.Pending() {
		t.Fatalf("fired index = %d (pending %v), want %d", fired.index, fired.Pending(), idxIdle)
	}
}

// TestFreeListRecycles proves the wrapper free list is engaged: the
// wrapper of an event that fired backs the next ScheduleRunner, and the
// recycled incarnation behaves like a fresh one.
func TestFreeListRecycles(t *testing.T) {
	var e Engine
	var got []int
	first := e.ScheduleRunner(1, &recordRunner{out: &got, id: 1})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	second := e.ScheduleRunner(1, &recordRunner{out: &got, id: 2})
	if first != second {
		t.Fatal("fired wrapper was not recycled by the next ScheduleRunner")
	}
	if !second.Pending() {
		t.Fatalf("recycled event in bad state: index=%d", second.index)
	}
	third := e.ScheduleRunner(1, &recordRunner{out: &got, id: 3})
	if third == second {
		t.Fatal("a pending wrapper was handed out twice")
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
	if e.Now() != 1+1 {
		t.Fatalf("Now = %d, want 2", e.Now())
	}
	if n := len(e.wrappers.items); n != 2 {
		t.Fatalf("free list holds %d wrappers after both fired, want 2", n)
	}
}

// TestFreeListOrderingUnchanged re-runs the ordering property through
// enough schedule/fire/cancel churn that most events are recycled ones.
func TestFreeListOrderingUnchanged(t *testing.T) {
	var e Engine
	r := NewRand(17)
	var fireOrder []uint64
	var pending []*Event
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			pending = append(pending, e.Schedule(r.Uint64n(16), func() {
				fireOrder = append(fireOrder, e.Now())
			}))
		}
		// Cancel a deterministic subset while still queued.
		for i := 0; i < len(pending); i += 3 {
			e.Cancel(pending[i])
		}
		pending = pending[:0]
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(fireOrder); i++ {
		if fireOrder[i] < fireOrder[i-1] {
			t.Fatalf("cycle order regressed at %d: %d < %d", i, fireOrder[i], fireOrder[i-1])
		}
	}
	if len(fireOrder) == 0 {
		t.Fatal("nothing fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(1, func() { got = append(got, 1) })
	ev := e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(3, func() { got = append(got, 3) })
	e.Cancel(ev)
	e.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", got)
	}
}

func TestRunLimit(t *testing.T) {
	var e Engine
	var reschedule func()
	reschedule = func() { e.Schedule(10, reschedule) }
	e.Schedule(10, reschedule)
	n, err := e.Run(100)
	if err == nil {
		t.Fatal("expected cycle-limit error")
	}
	if n == 0 {
		t.Fatal("no events fired before limit")
	}
	if e.Now() > 100 {
		t.Fatalf("clock ran past limit: %d", e.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestScheduleNilPanics: the engine's panics name the cycle they
// happened at — a nil payload, and an event behind the clock.
func TestScheduleNilPanics(t *testing.T) {
	wantPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); msg != want {
				t.Errorf("panic = %q, want %q", msg, want)
			}
		}()
		f()
	}
	var e Engine
	e.Schedule(5, func() {})
	e.Step()
	wantPanic("sim: cycle 5: Schedule called with nil fn", func() { e.Schedule(1, nil) })
	wantPanic("sim: cycle 5: event scheduled in the past (cycle 3)", func() { e.advance(3) })
}

// Property: events always fire in nondecreasing cycle order, and ties fire
// in insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		var e Engine
		type rec struct {
			cycle uint64
			seq   int
		}
		var fireOrder []rec
		for i, d := range delays {
			d := uint64(d % 64)
			i := i
			e.Schedule(d, func() { fireOrder = append(fireOrder, rec{e.Now(), i}) })
		}
		if _, err := e.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(fireOrder); i++ {
			a, b := fireOrder[i-1], fireOrder[i]
			if b.cycle < a.cycle {
				return false
			}
			if b.cycle == a.cycle && b.seq < a.seq {
				return false
			}
		}
		return len(fireOrder) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

// TestSerialModeStartsNoGoroutines pins the engine's concurrency model:
// Run fires every event on the calling goroutine and spawns nothing.
func TestSerialModeStartsNoGoroutines(t *testing.T) {
	var e Engine
	before := runtime.NumGoroutine()
	during := -1
	e.Schedule(1, func() { during = runtime.NumGoroutine() })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if during != before {
		t.Errorf("goroutines during Run = %d, before = %d", during, before)
	}
}

// postRunner is a payload with its own embedded event, the way the
// simulator's per-core and pooled payloads carry theirs.
type postRunner struct {
	ev  Event
	out *[]int
	id  int
}

func newPostRunner(out *[]int, id int) *postRunner {
	p := &postRunner{out: out, id: id}
	p.ev.Bind(p)
	return p
}

func (p *postRunner) Run() { *p.out = append(*p.out, p.id) }

// TestPostPendingPanics: an event is pending at most once, and a second
// Post names both the cycle it happened at and the cycle the event is
// already pending for. Unbound events cannot be posted.
func TestPostPendingPanics(t *testing.T) {
	wantPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); msg != want {
				t.Errorf("panic = %q, want %q", msg, want)
			}
		}()
		f()
	}
	var e Engine
	var got []int
	p := newPostRunner(&got, 1)
	e.Schedule(5, func() {})
	e.Step()
	e.Post(3, &p.ev)
	if !p.ev.Pending() {
		t.Fatal("posted event does not report Pending")
	}
	wantPanic("sim: cycle 5: Post of an event still pending for cycle 8", func() { e.Post(1, &p.ev) })
	wantPanic("sim: cycle 5: Post of an event not bound with Bind", func() { e.Post(1, &Event{}) })
	wrapped := e.Schedule(2, func() {})
	wantPanic("sim: cycle 5: Post of an event still pending for cycle 7", func() { e.Post(1, wrapped) })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || p.ev.Pending() {
		t.Fatalf("fired %v, pending %v; want one firing and idle", got, p.ev.Pending())
	}
}

// TestCancelledEmbeddedEventPostsAgain: cancelling an embedded event,
// in the wheel or in the far heap, leaves it bound and idle: it may be
// posted again, and then fires once.
func TestCancelledEmbeddedEventPostsAgain(t *testing.T) {
	for _, delay := range []uint64{4, wheelSize + 4} {
		var e Engine
		var got []int
		p := newPostRunner(&got, 1)
		e.Post(delay, &p.ev)
		e.Cancel(&p.ev)
		e.Cancel(&p.ev) // a second cancel is a no-op
		if p.ev.index != idxIdle || p.ev.Pending() || e.Pending() != 0 {
			t.Fatalf("delay %d: after Cancel: index=%d pending=%v engine pending=%d",
				delay, p.ev.index, p.ev.Pending(), e.Pending())
		}
		e.Post(delay, &p.ev)
		if !p.ev.Pending() {
			t.Fatalf("delay %d: re-posted event does not report Pending", delay)
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || e.Now() != delay {
			t.Fatalf("delay %d: fired %v at cycle %d, want one firing at %d", delay, got, e.Now(), delay)
		}
	}
}

// TestPostZeroDuringDrain: a delay-0 Post made while a cycle's bucket
// drains fires in that cycle, after the events already queued for it,
// and before any later cycle.
func TestPostZeroDuringDrain(t *testing.T) {
	var e Engine
	var got []int
	late := newPostRunner(&got, 9)
	again := newPostRunner(&got, 4)
	e.Schedule(2, func() {
		got = append(got, 1)
		e.Post(0, &again.ev)
	})
	e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(2, func() { got = append(got, 3) })
	e.Post(3, &late.ev)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestHaltInsideDrain: a Halt requested by one event stops Run before
// the next event of the same cycle; a later Run resumes with it.
func TestHaltInsideDrain(t *testing.T) {
	var e Engine
	var got []int
	halt := errors.New("stop")
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(1, func() {
		got = append(got, 2)
		e.Halt(halt)
	})
	e.Schedule(1, func() { got = append(got, 3) })
	n, err := e.Run(0)
	if err != halt {
		t.Fatalf("Run error = %v, want %v", err, halt)
	}
	if n != 2 || len(got) != 2 || e.Pending() != 1 {
		t.Fatalf("fired %d (%v), %d pending; want 2 fired, 1 pending", n, got, e.Pending())
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 || e.Now() != 1 {
		t.Fatalf("after resume: %v at cycle %d", got, e.Now())
	}
}
