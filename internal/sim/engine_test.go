package sim

import (
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
	if !ev.Cancelled() {
		t.Fatal("event should report cancelled")
	}
}

// TestCancelIndexStates pins the Event.index lifecycle the free-list
// recycling relies on: >= 0 while queued, -1 once popped (fired), -2 once
// cancelled. Only the -2 state reports Cancelled().
func TestCancelIndexStates(t *testing.T) {
	var e Engine
	var fired *Event
	fired = e.Schedule(1, func() {
		if fired.index != -1 {
			t.Errorf("index during own callback = %d, want -1", fired.index)
		}
	})
	cancelled := e.Schedule(2, func() { t.Error("cancelled event fired") })
	if fired.index < 0 || cancelled.index < 0 {
		t.Fatalf("queued indices = %d, %d; want >= 0", fired.index, cancelled.index)
	}
	if fired.Cancelled() || cancelled.Cancelled() {
		t.Fatal("queued events report Cancelled")
	}
	e.Cancel(cancelled)
	if cancelled.index != -2 {
		t.Fatalf("cancelled index = %d, want -2", cancelled.index)
	}
	if !cancelled.Cancelled() {
		t.Fatal("cancelled event does not report Cancelled")
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired.index != -1 {
		t.Fatalf("fired index = %d, want -1", fired.index)
	}
	if fired.Cancelled() {
		t.Fatal("fired event reports Cancelled")
	}
}

// TestFreeListRecycles proves the free list is engaged: an Event object
// that fired (or was cancelled) backs a later Schedule call, and the
// recycled incarnation behaves like a fresh one.
func TestFreeListRecycles(t *testing.T) {
	var e Engine
	first := e.Schedule(1, func() {})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	second := e.Schedule(1, func() {})
	if first != second {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if second.Cancelled() || second.index < 0 {
		t.Fatalf("recycled event in bad state: index=%d", second.index)
	}
	e.Cancel(second)
	third := e.Schedule(3, func() {})
	if third != second {
		t.Fatal("cancelled event was not recycled by the next Schedule")
	}
	if third.Cancelled() {
		t.Fatal("recycled event still reports Cancelled")
	}
	fired := false
	e.Schedule(1, func() { fired = true })
	e.Cancel(third)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("unrelated event lost after recycling churn")
	}
	if e.Now() != 1+1 {
		t.Fatalf("Now = %d, want 2", e.Now())
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

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var e Engine
	e.Schedule(1, nil)
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
