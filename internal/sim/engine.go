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
//
// Events have one lifetime: an event is a field of the payload it
// fires. The payload binds it once, when it is built (Event.Bind), and
// schedules it with Post for as long as it lives. The holder owns it,
// so its pointer never goes stale, but it can be pending only once at a
// time: Post of a pending event panics. That is the rule the
// simulator's payloads live by anyway (one access, one timer and one
// begin in flight per core; one pooled message per hop).
//
// Schedule and ScheduleRunner are an adapter at the engine's edge for
// callers without a payload of their own: they lend the runner a
// pooled wrapper payload, which embeds its own event and goes back to
// its FreeList once the runner returns. Cancel never recycles anything:
// a cancelled wrapper is left to the GC.
//
// Run drains the wheel one cycle at a time: it advances the clock to the
// next occupied bucket, migrates far events and checks the cycle limit
// once, then fires the bucket's events in one loop, checking for a Halt
// before each. A delay-0 event scheduled while the bucket drains joins
// its tail and fires in the same loop, after the events already queued.
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
)

// Runner is a typed event payload: Run is invoked when the event fires.
// Hot paths implement Runner on pooled or per-core payload structs that
// embed their own Event, so scheduling a latency hop allocates nothing,
// unlike a func() payload, which captures its state in a fresh closure
// per call.
type Runner interface{ Run() }

// Func adapts a plain function to Runner. A func value is pointer-sized,
// so storing it in the Runner interface does not allocate.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

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
	idxIdle  = -1 // bound and not pending: never posted, fired or cancelled
	idxWheel = 1 << 30
)

// Event is a callback scheduled to run at a specific cycle.
//
// An Event is a field of the payload it fires, bound to it once by Bind
// and scheduled by Post. It belongs to its holder: the engine never
// recycles it, a fired or cancelled one may be posted again, and a
// pending one may not (Post panics, naming the cycle).
//
// The Event returned by Schedule or ScheduleRunner is the one embedded
// in a pooled wrapper. The handle is good for Cancel until the event
// fires; once it has fired the wrapper may back a later Schedule call,
// so holders must drop the pointer then. A cancelled wrapper is never
// reused.
type Event struct {
	cycle uint64
	// seq orders same-cycle events in the far heap by insertion. Wheel
	// events need none: a bucket is a FIFO, and a cycle's far events
	// migrate into it before any event can be posted to it directly.
	seq uint64
	run Runner
	// next/prev link the event into its timing-wheel bucket (unused in
	// the far heap).
	next, prev *Event
	// index: far-heap position while overflowed, idxWheel while parked
	// in a bucket, idxIdle otherwise.
	index int
}

// Bind makes e an embedded event that fires r. The payload that holds e
// calls it once, when the payload is built.
func (e *Event) Bind(r Runner) {
	if r == nil {
		panic("sim: Bind called with nil Runner")
	}
	e.run = r
	e.index = idxIdle
}

// Pending reports whether the event is scheduled and has not yet fired.
// An event reports false inside its own Run.
func (e *Event) Pending() bool { return e.run != nil && e.index >= 0 }

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
	e.index = idxIdle
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

	// wrappers recycles the payloads that ScheduleRunner lends, once
	// they fire, so its steady-state schedule/fire cycle allocates
	// nothing.
	wrappers FreeList[wrapper]

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

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.far) }

// Post schedules the embedded event ev to fire delay cycles from now. A
// delay of zero fires it after all events already scheduled for the
// current cycle. ev must be bound (Event.Bind) and must not be pending.
func (e *Engine) Post(delay uint64, ev *Event) {
	if ev.index >= 0 || ev.run == nil {
		e.badPost(ev)
	}
	ev.cycle = e.now + delay
	if delay < wheelSize {
		e.wheelAdd(ev)
	} else {
		ev.seq = e.seq
		e.seq++
		heap.Push(&e.far, ev)
	}
}

// badPost panics on a Post of an unbound or pending event.
func (e *Engine) badPost(ev *Event) {
	if ev.run == nil {
		panic(fmt.Sprintf("sim: cycle %d: Post of an event not bound with Bind", e.now))
	}
	panic(fmt.Sprintf("sim: cycle %d: Post of an event still pending for cycle %d", e.now, ev.cycle))
}

// Schedule runs fn delay cycles from now. A delay of zero runs fn after
// all events already scheduled for the current cycle. The returned
// handle may be passed to Cancel until the event fires (see Event).
func (e *Engine) Schedule(delay uint64, fn func()) *Event {
	if fn == nil {
		panic(fmt.Sprintf("sim: cycle %d: Schedule called with nil fn", e.now))
	}
	return e.ScheduleRunner(delay, Func(fn))
}

// ScheduleRunner runs r.Run() delay cycles from now, with the same
// ordering and handle semantics as Schedule. It lends r a wrapper from
// the engine's free list, so with a pooled r the call allocates nothing.
func (e *Engine) ScheduleRunner(delay uint64, r Runner) *Event {
	if r == nil {
		panic(fmt.Sprintf("sim: cycle %d: ScheduleRunner called with nil Runner", e.now))
	}
	w := e.wrappers.Get()
	if w == nil {
		w = &wrapper{e: e}
		w.ev.Bind(w)
	}
	w.r = r
	e.Post(delay, &w.ev)
	return &w.ev
}

// wrapper is the payload ScheduleRunner lends a Runner that carries no
// event of its own.
type wrapper struct {
	ev Event
	e  *Engine
	r  Runner
}

// Run fires the wrapped runner, then returns the wrapper to the free
// list. Only then: the runner may still observe its own handle.
func (w *wrapper) Run() {
	w.r.Run()
	w.r = nil
	w.e.wrappers.Put(w)
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
			panic(fmt.Sprintf("sim: cycle %d: wheel count %d positive but no occupied bucket", e.now, e.wheelCount))
		}
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
	}
}

// Cancel removes a scheduled event. It is a no-op if the event is not
// pending: it already fired, was already cancelled or was never posted.
func (e *Engine) Cancel(ev *Event) {
	if !ev.Pending() {
		return
	}
	if ev.index == idxWheel {
		e.wheelRemove(ev)
	} else {
		heap.Remove(&e.far, ev.index)
	}
	ev.index = idxIdle
}

// Step fires the next event, advancing the clock to its cycle.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	c, ok := e.nextCycle()
	if !ok {
		return false
	}
	e.advance(c)
	i := int(uint(c) & wheelMask)
	b := &e.buckets[i]
	if b.head == nil || b.head.cycle != c {
		e.outOfSync(i)
	}
	ev := e.pop(b, i)
	e.fired++
	ev.run.Run()
	return true
}

// advance moves the clock to cycle c, the earliest pending event's, and
// migrates the far events that come within the wheel's horizon.
func (e *Engine) advance(c uint64) {
	if c < e.now {
		panic(fmt.Sprintf("sim: cycle %d: event scheduled in the past (cycle %d)", e.now, c))
	}
	if c > e.now {
		e.now = c
		e.migrate()
	}
}

// pop unlinks the head of bucket b, at index i, which the caller knows
// is a current-cycle event.
func (e *Engine) pop(b *bucket, i int) *Event {
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.occ[i>>6] &^= 1 << uint(i&63)
	} else {
		b.head.prev = nil
	}
	ev.index = idxIdle
	e.wheelCount--
	return ev
}

func (e *Engine) outOfSync(i int) {
	panic(fmt.Sprintf("sim: cycle %d: timing wheel bucket %d out of sync with clock", e.now, i))
}

// Run fires events until the queue drains or the clock would pass limit.
// A limit of 0 means no limit. It returns the number of events fired and
// an error if the limit was reached with events still pending (a likely
// deadlock or livelock in the simulated system).
//
// Each cycle is drained in one loop: the clock, the far-heap migration
// and the limit are handled once per cycle, and a Halt is honored
// before every event.
func (e *Engine) Run(limit uint64) (uint64, error) {
	start := e.fired
	for e.halt == nil {
		c, ok := e.nextCycle()
		if !ok {
			break
		}
		if limit != 0 && c > limit {
			return e.fired - start, fmt.Errorf("sim: cycle limit %d reached with %d events pending at cycle %d",
				limit, e.Pending(), c)
		}
		e.advance(c)
		i := int(uint(c) & wheelMask)
		b := &e.buckets[i]
		for b.head != nil && e.halt == nil {
			if b.head.cycle != c {
				e.outOfSync(i)
			}
			// Fired inline: a call per event cost scale256 ~5%.
			ev := e.pop(b, i)
			e.fired++
			ev.run.Run()
		}
	}
	// A Halt stops the drain; the last event may itself have requested it.
	if e.halt != nil {
		err := e.halt
		e.halt = nil
		return e.fired - start, err
	}
	return e.fired - start, nil
}
