package sim

import (
	"container/heap"
	"testing"
)

// Ordering edge cases the timing wheel must preserve exactly: the
// observable firing order is defined as (cycle, insertion seq), and the
// wheel/far-heap split plus free-list recycling must never reorder it.

// TestZeroDelaySelfRescheduleOrdering: an event that reschedules itself
// at delay 0 runs after everything already queued for the current
// cycle, every iteration — including events added while it was running.
func TestZeroDelaySelfRescheduleOrdering(t *testing.T) {
	var e Engine
	var got []int
	hops := 0
	var self func()
	self = func() {
		got = append(got, hops)
		hops++
		if hops < 3 {
			// Interleave a fresh same-cycle event, then the self-hop: the
			// fresh event has a smaller seq and must fire first.
			n := 100 + hops
			e.Schedule(0, func() { got = append(got, n) })
			e.Schedule(0, self)
		}
	}
	e.Schedule(0, self)
	e.Schedule(0, func() { got = append(got, 99) })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 99, 101, 1, 102, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %d, want 0", e.Now())
	}
}

// TestCancelThenScheduleHandleReuse: a cancelled wrapper is left to the
// GC, never handed out again, so a stale handle cannot reach a later
// Schedule's event: cancelling it again is a no-op, and the engine's
// state stays consistent, with no double-free or wheel corruption.
func TestCancelThenScheduleHandleReuse(t *testing.T) {
	var e Engine
	old := e.Schedule(3, func() { t.Error("cancelled event fired") })
	e.Cancel(old)
	if old.Pending() {
		t.Fatal("cancelled handle still reports Pending")
	}
	fired := false
	next := e.Schedule(5, func() { fired = true })
	if next == old {
		t.Fatal("free list reused the cancelled wrapper")
	}
	e.Cancel(old) // the stale handle: a no-op
	if !next.Pending() || e.Pending() != 1 {
		t.Fatalf("stale cancel reached the live event: pending %v, engine pending %d", next.Pending(), e.Pending())
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("live event lost to a stale cancel")
	}
	// The engine must still schedule and fire normally afterwards.
	ok := false
	e.Schedule(1, func() { ok = true })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("engine wedged after handle-aliasing churn")
	}
}

// TestSameCycleFIFOAcrossWheelOverflowBoundary: one event reaches cycle
// C through the far heap (scheduled early with a beyond-horizon delay),
// another lands on the same cycle directly in the wheel (scheduled late
// with a short delay). The far event was inserted first, so it must
// fire first.
func TestSameCycleFIFOAcrossWheelOverflowBoundary(t *testing.T) {
	const target = wheelSize + 44 // arbitrary cycle beyond the initial horizon
	var e Engine
	var got []string
	e.Schedule(target, func() { got = append(got, "far") }) // seq 0, far heap
	// A stepping stone inside the horizon of target schedules the direct
	// competitor once target is reachable with a short delay.
	e.Schedule(target-10, func() {
		e.Schedule(10, func() { got = append(got, "near") }) // same cycle, larger seq
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "far" || got[1] != "near" {
		t.Fatalf("order = %v, want [far near]", got)
	}
	if e.Now() != target {
		t.Fatalf("Now = %d, want %d", e.Now(), target)
	}
}

// TestSameCycleFIFOMultipleFarEvents: several far-heap events for one
// cycle must migrate into the bucket in seq order even though the heap
// stores them unordered.
func TestSameCycleFIFOMultipleFarEvents(t *testing.T) {
	var e Engine
	var got []int
	const target = 3 * wheelSize
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(target, func() { got = append(got, i) })
	}
	// Interleave far events at other cycles so the heap actually mixes.
	e.Schedule(target+wheelSize, func() {})
	e.Schedule(target-wheelSize, func() {})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("fired %d, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle far events fired out of insertion order: %v", got)
		}
	}
}

// TestDelaysPastHorizon: delays beyond the near wheel (including ones
// many horizons out) fire at the exact requested cycle, in cycle order.
func TestDelaysPastHorizon(t *testing.T) {
	var e Engine
	delays := []uint64{wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize + 3, 10 * wheelSize, 100*wheelSize + 7}
	firedAt := make([]uint64, len(delays))
	for i, d := range delays {
		i, d := i, d
		e.Schedule(d, func() { firedAt[i] = e.Now() })
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, d := range delays {
		if firedAt[i] != d {
			t.Fatalf("delay %d fired at cycle %d", d, firedAt[i])
		}
	}
}

// TestCancelFarEvent: cancelling an event still parked in the overflow
// heap removes it without disturbing wheel events.
func TestCancelFarEvent(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(1, func() { got = append(got, 1) })
	far := e.Schedule(5*wheelSize, func() { got = append(got, 2) })
	e.Schedule(2*wheelSize, func() { got = append(got, 3) })
	e.Cancel(far)
	if far.Pending() || e.Pending() != 2 {
		t.Fatalf("far event not cancelled: pending %v, engine pending %d", far.Pending(), e.Pending())
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", got)
	}
}

// TestCancelMigratedEvent: an event that overflowed to the far heap and
// then migrated into the wheel is cancelled through the wheel path.
func TestCancelMigratedEvent(t *testing.T) {
	var e Engine
	fired := false
	far := e.Schedule(wheelSize+10, func() { fired = true })
	// This event advances the clock, migrating `far` into the wheel, and
	// then cancels it.
	e.Schedule(wheelSize, func() {
		if far.index != idxWheel {
			t.Errorf("far event index = %d after migration, want idxWheel", far.index)
		}
		e.Cancel(far)
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled migrated event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// TestRunnerPayloadOrderingWithFuncPayloads: ScheduleRunner events obey
// the same (cycle, seq) order interleaved with Schedule closures.
type recordRunner struct {
	out *[]int
	id  int
}

func (r *recordRunner) Run() { *r.out = append(*r.out, r.id) }

func TestRunnerPayloadOrdering(t *testing.T) {
	var e Engine
	var got []int
	r1 := &recordRunner{out: &got, id: 1}
	r3 := &recordRunner{out: &got, id: 3}
	e.ScheduleRunner(4, r1)
	e.Schedule(4, func() { got = append(got, 2) })
	e.ScheduleRunner(4, r3)
	e.Schedule(2, func() { got = append(got, 0) })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestScheduleRunnerNilPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); msg != "sim: cycle 5: ScheduleRunner called with nil Runner" {
			t.Fatalf("panic = %q", msg)
		}
	}()
	var e Engine
	e.Schedule(5, func() {})
	e.Step()
	e.ScheduleRunner(1, nil)
}

// TestHeapInterfaceDirect covers the far heap's Push/Pop contract
// directly (the engine itself only grows the heap via Post, for a delay
// past the wheel's horizon).
func TestHeapInterfaceDirect(t *testing.T) {
	var h eventHeap
	heap.Push(&h, &Event{cycle: 5, seq: 1})
	heap.Push(&h, &Event{cycle: 3, seq: 2})
	heap.Push(&h, &Event{cycle: 5, seq: 0})
	if h.Len() != 3 {
		t.Fatalf("len = %d", h.Len())
	}
	a := heap.Pop(&h).(*Event)
	b := heap.Pop(&h).(*Event)
	c := heap.Pop(&h).(*Event)
	if a.cycle != 3 || b.cycle != 5 || b.seq != 0 || c.seq != 1 {
		t.Fatalf("pop order (%d,%d) (%d,%d) (%d,%d)", a.cycle, a.seq, b.cycle, b.seq, c.cycle, c.seq)
	}
	if a.index != idxIdle {
		t.Fatalf("popped index = %d", a.index)
	}
}
