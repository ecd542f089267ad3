// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a global cycle counter and a scheduler ordered by
// (cycle, insertion sequence). Events inserted at the same cycle fire in
// insertion order, which makes every simulation run bit-reproducible for
// a given seed: there is no reliance on map iteration order, goroutine
// scheduling, or wall-clock time.
//
// Internally the scheduler is a hierarchical timing wheel: a near wheel
// of wheelSize one-cycle buckets absorbs the short Table-I latencies
// that make up virtually all simulated delays (schedule, cancel and fire
// are O(1)), and a far binary heap holds the rare long delays (backoff
// tails, watchdog windows) until the clock advances to within the
// wheel's horizon, at which point they migrate into their bucket in
// (cycle, seq) order. The observable firing order is exactly the
// (cycle, seq) order of the old pure-heap engine, so runs stay
// bit-identical.
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
)

// Runner is a typed event payload: Run is invoked when the event fires.
// Hot paths implement Runner on pooled per-layer message structs and use
// ScheduleRunner, so scheduling a latency hop allocates nothing — unlike
// a func() payload, which captures its state in a fresh closure per
// call.
type Runner interface{ Run() }

const (
	wheelBits  = 8
	wheelSize  = 1 << wheelBits // near-wheel horizon in cycles
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// Event.index sentinels. Far-heap events use their heap position
// (0..len-1); wheel-parked events use idxWheel so tests can still treat
// "index >= 0" as queued.
const (
	idxFired     = -1
	idxCancelled = -2
	idxWheel     = 1 << 30
)

// maxFreeEvents caps the event free list. A burst of scheduled-then-
// cancelled events (backoff storms, mass probe cancellation) would
// otherwise grow the list to the burst's high-water mark and pin that
// memory for the rest of a long sweep; beyond the cap, recycled events
// are simply dropped for the GC.
const maxFreeEvents = 4096

// Event is a callback scheduled to run at a specific cycle.
//
// The pointer returned by Schedule stays valid until the event fires or
// is cancelled; after that the engine may recycle the object for a later
// Schedule call, so holders must drop the pointer once it fires (the
// machine's validation timer clears its handle inside the callback for
// exactly this reason).
type Event struct {
	cycle uint64
	seq   uint64 // global insertion sequence
	fn    func()
	run   Runner
	// next/prev link the event into its timing-wheel bucket (nil while
	// in the far heap).
	next, prev *Event
	// index: far-heap position while overflowed, idxWheel while parked
	// in a bucket, idxFired once popped, idxCancelled once cancelled.
	index int
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == idxCancelled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = idxFired
	*h = old[:n-1]
	return e
}

// bucket is one near-wheel slot: a FIFO of events for a single cycle.
// Doubly linked so Cancel unlinks in O(1).
type bucket struct {
	head, tail *Event
}

// Engine is a discrete-event simulator clock and scheduler.
// The zero value is ready to use.
type Engine struct {
	now   uint64
	seq   uint64
	fired uint64

	// Near wheel: bucket i holds the events for the unique cycle c in
	// [now, now+wheelSize) with c&wheelMask == i. occ mirrors bucket
	// occupancy as a bitmap so the next non-empty bucket is found with a
	// handful of word scans.
	buckets    [wheelSize]bucket
	occ        [wheelWords]uint64
	wheelCount int

	// far holds events scheduled past the wheel horizon; they migrate
	// into buckets (in heap order, i.e. (cycle, seq) order) as the clock
	// advances.
	far eventHeap

	// free recycles Event objects popped or cancelled, so the
	// steady-state schedule/fire cycle allocates nothing (a simulation
	// schedules one event per latency hop, which dominated the heap
	// profile before). Capped at maxFreeEvents.
	free []*Event

	// halt, when set by Halt, stops Run before the next event fires. It
	// lets in-event code (watchdogs, invariant checkers) abort the whole
	// simulation with a diagnostic instead of unwinding through every
	// caller on the event stack.
	halt error
}

// Halt requests that Run stop before firing the next event, returning
// err. Safe to call from inside an event callback; the current event
// finishes normally. Calling Halt again keeps the first error.
func (e *Engine) Halt(err error) {
	if e.halt == nil {
		e.halt = err
	}
}

// Halted returns the pending halt error, if any.
func (e *Engine) Halted() error { return e.halt }

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.far) }

// Schedule runs fn delay cycles from now. A delay of zero runs fn after
// all events already scheduled for the current cycle. The returned
// handle may be passed to Cancel, but is only valid until the event
// fires or is cancelled (see Event).
func (e *Engine) Schedule(delay uint64, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil fn")
	}
	return e.insert(delay, fn, nil)
}

// ScheduleRunner runs r.Run() delay cycles from now, with the same
// ordering and handle semantics as Schedule. Unlike a closure payload,
// r is typically a pooled or embedded struct, so the call allocates
// nothing.
func (e *Engine) ScheduleRunner(delay uint64, r Runner) *Event {
	if r == nil {
		panic("sim: ScheduleRunner called with nil Runner")
	}
	return e.insert(delay, nil, r)
}

func (e *Engine) insert(delay uint64, fn func(), r Runner) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.cycle = e.now + delay
	ev.seq = e.seq
	ev.fn = fn
	ev.run = r
	e.seq++
	if delay < wheelSize {
		e.wheelAdd(ev)
	} else {
		heap.Push(&e.far, ev)
	}
	return ev
}

// wheelAdd parks ev at the tail of its bucket. Callers guarantee
// ev.cycle is within [now, now+wheelSize), so the bucket holds only
// events of that one cycle and tail-append preserves seq order.
func (e *Engine) wheelAdd(ev *Event) {
	i := int(uint(ev.cycle) & wheelMask)
	b := &e.buckets[i]
	ev.prev = b.tail
	ev.next = nil
	if b.tail != nil {
		b.tail.next = ev
	} else {
		b.head = ev
		e.occ[i>>6] |= 1 << uint(i&63)
	}
	b.tail = ev
	ev.index = idxWheel
	e.wheelCount++
}

// wheelRemove unlinks ev from its bucket.
func (e *Engine) wheelRemove(ev *Event) {
	i := int(uint(ev.cycle) & wheelMask)
	b := &e.buckets[i]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if b.head == nil {
		e.occ[i>>6] &^= 1 << uint(i&63)
	}
	e.wheelCount--
}

// migrate moves far-heap events whose cycle has come within the wheel
// horizon into their buckets. Called on every clock advance, before any
// event at the new cycle runs, so a bucket always receives far events
// (smaller seq) before any same-cycle event scheduled directly into the
// wheel later — preserving global (cycle, seq) FIFO order.
func (e *Engine) migrate() {
	horizon := e.now + wheelSize - 1
	for len(e.far) > 0 && e.far[0].cycle <= horizon {
		e.wheelAdd(heap.Pop(&e.far).(*Event))
	}
}

// nextCycle returns the cycle of the earliest pending event. While the
// wheel is non-empty its earliest bucket is always at or before the far
// heap's top (far events are beyond the horizon by construction), so
// the far heap is only consulted when the wheel is empty.
func (e *Engine) nextCycle() (uint64, bool) {
	if e.wheelCount > 0 {
		return e.scanWheel(), true
	}
	if len(e.far) > 0 {
		return e.far[0].cycle, true
	}
	return 0, false
}

// scanWheel finds the first occupied bucket at or after now, walking the
// occupancy bitmap (at most wheelWords+1 word reads).
func (e *Engine) scanWheel() uint64 {
	p := uint(e.now) & wheelMask
	w := p >> 6
	word := e.occ[w] &^ (1<<(p&63) - 1)
	for steps := 0; ; steps++ {
		if word != 0 {
			idx := w<<6 + uint(bits.TrailingZeros64(word))
			return e.now + uint64((idx-p)&wheelMask)
		}
		if steps > wheelWords {
			panic("sim: wheel count positive but no occupied bucket")
		}
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
	}
}

// Cancel removes a scheduled event. It is a no-op if the event already
// fired or was already cancelled.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	switch {
	case ev.index == idxWheel:
		e.wheelRemove(ev)
	case ev.index >= 0:
		heap.Remove(&e.far, ev.index)
	default:
		return
	}
	ev.index = idxCancelled
	// Recycle: the object keeps reporting Cancelled() until Schedule
	// hands it out again.
	ev.fn = nil
	ev.run = nil
	e.release(ev)
}

func (e *Engine) release(ev *Event) {
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// Step fires the next event, advancing the clock to its cycle.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	c, ok := e.nextCycle()
	if !ok {
		return false
	}
	e.step(c)
	return true
}

// step fires the earliest event, known to be at cycle c.
func (e *Engine) step(c uint64) {
	if c < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%d < %d)", c, e.now))
	}
	if c > e.now {
		e.now = c
		e.migrate()
	}
	i := int(uint(e.now) & wheelMask)
	b := &e.buckets[i]
	ev := b.head
	if ev == nil || ev.cycle != e.now {
		panic("sim: timing wheel bucket out of sync with clock")
	}
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.occ[i>>6] &^= 1 << uint(i&63)
	} else {
		b.head.prev = nil
	}
	ev.next, ev.prev = nil, nil
	ev.index = idxFired
	e.wheelCount--
	e.fired++
	if r := ev.run; r != nil {
		r.Run()
	} else {
		fn := ev.fn
		fn()
	}
	// The callback may observe its own popped handle (index -1), so the
	// object joins the free list only after it returns.
	ev.fn = nil
	ev.run = nil
	e.release(ev)
}

// Run fires events until the queue drains or the clock would pass limit.
// A limit of 0 means no limit. It returns the number of events fired and
// an error if the limit was reached with events still pending (a likely
// deadlock or livelock in the simulated system).
func (e *Engine) Run(limit uint64) (uint64, error) {
	start := e.fired
	for {
		c, ok := e.nextCycle()
		if !ok {
			break
		}
		if e.halt != nil {
			err := e.halt
			e.halt = nil
			return e.fired - start, err
		}
		if limit != 0 && c > limit {
			return e.fired - start, fmt.Errorf("sim: cycle limit %d reached with %d events pending at cycle %d",
				limit, e.Pending(), c)
		}
		e.step(c)
	}
	// The last event may itself have requested the halt.
	if e.halt != nil {
		err := e.halt
		e.halt = nil
		return e.fired - start, err
	}
	return e.fired - start, nil
}
