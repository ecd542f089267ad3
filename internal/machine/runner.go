//go:build go1.23

// iter.Pull needs go1.23; the tag raises only this file's language
// version, so the module (and the benchmark module that imports it)
// keeps its go 1.22 directive.

package machine

import (
	"fmt"
	"iter"
	"runtime/debug"

	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// Ctx is the API a workload thread programs against. All memory methods
// act on simulated memory and advance simulated time; Atomic runs its
// body as a hardware transaction with the configured retry and fallback
// behavior.
//
// Only the calls whose reply the thread reads suspend it: Load, Walk
// and Atomic (at its commit and at each op of its body that suspends).
// Store, Add and Work are posted: queued without suspending the thread
// and issued in order ahead of its next call that suspends, or its
// return. The simulated timing is that of issuing each at once, but Go
// code after a posted op may run before the op completes, at an earlier
// simulated cycle, so a thread must not read simulated state behind the
// simulator's back.
type Ctx interface {
	// TID is this thread's id (0-based).
	TID() int
	// Threads is the number of threads in the run.
	Threads() int
	// Rand is this thread's deterministic PRNG.
	Rand() *sim.Rand
	// Atomic executes body atomically: as a hardware transaction with
	// retries, escalating to the power token or the global fallback lock
	// per the system's configuration. The body may run multiple times and
	// must keep mutable state in simulated memory or in per-attempt
	// locals.
	Atomic(body func(tx Tx))
	// Load reads a word non-transactionally. It suspends the thread.
	Load(a mem.Addr) uint64
	// Store writes a word non-transactionally. It is posted.
	Store(a mem.Addr, v uint64)
	// Add adds d to the word at a non-transactionally: the load and the
	// store of Store(a, Load(a)+d), with their timing and trace, but
	// posted, because the thread never sees the value. The engine
	// issues the store inside the event that completes the load.
	Add(a mem.Addr, d uint64)
	// Walk runs a load chain non-transactionally: it loads first,
	// passes the value to w.Next and loads the address Next returns,
	// until Next reports more == false. The loads, their timing and
	// their trace are those of the same Load calls made in a loop, but
	// the engine issues each next load itself, inside the event that
	// completed the last, so the thread resumes once per walk rather
	// than once per load. Next therefore runs at engine time and must
	// be pure: no Ctx or Tx calls, no random draws, no Go state shared
	// beyond the walker. A panic in Next, or a call back into Ctx or
	// Tx, fails the run as this thread's ThreadPanic.
	Walk(first mem.Addr, w mem.Walker)
	// Work consumes n cycles of computation. It is posted.
	Work(n uint64)
}

// Tx is the handle the Atomic body uses. Inside a hardware transaction
// the accesses are speculative; on the fallback path they are plain
// accesses protected by the global lock. Load and Walk suspend the
// thread, and so does the commit after the body; Store, Add and Work are
// posted as Ctx's are, and so are the transaction's begin and, after an
// abort, its acknowledgement and backoff, so the body runs up to its
// first call that suspends before the begin is issued. When the
// transaction dies during a posted op, or its begin loses the race to
// the fallback lock, the body unwinds at its next call that suspends,
// not at the op itself; the draws it made from Rand since then are
// rolled back, but no other Go state it changed meanwhile is.
type Tx interface {
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	// Add is Ctx.Add inside the transaction. On the STM fallback path
	// it is Store(a, Load(a)+d).
	Add(a mem.Addr, d uint64)
	// Walk is Ctx.Walk inside the transaction: when a load of the chain
	// finds the transaction dead, Walk unwinds the body as Load would.
	Walk(first mem.Addr, w mem.Walker)
	Work(n uint64)
	Rand() *sim.Rand
	// Fallback reports whether this execution runs on the software
	// fallback path rather than speculatively.
	Fallback() bool
}

// txAbort unwinds the Atomic body when the transaction dies.
type txAbort struct{}

// killedSignal unwinds a thread when the simulation is torn down.
type killedSignal struct{}

// ThreadPanic is the error a run fails with when a workload's Thread
// panics: the run halts, the other threads are unwound, and Run returns
// it wrapped, so one buggy workload fails its own run instead of
// killing the process. Value is the recovered panic value and Stack the
// thread's coroutine stack at recovery.
type ThreadPanic struct {
	Thread int
	Value  any
	Stack  []byte
}

func (e *ThreadPanic) Error() string {
	return fmt.Sprintf("thread %d panicked: %v\n%s", e.Thread, e.Value, e.Stack)
}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opAdd // a Load whose completion issues the Store of the value plus val
	opWork
	opBegin
	opCommit
	opAbortAck
	opEnterFallback
	opExitFallback
	opAcquirePower
	opReleasePower
	opFallbackBodyStart
	opAcquire
	opWalk
	// opFlush issues nothing: the thread yields it to have its posted
	// ops run when it has no op of its own to issue.
	opFlush
)

type opReq struct {
	addr    mem.Addr
	val     uint64
	attempt int
	kind    opKind
	inTx    bool
	power   bool
}

type opReply struct {
	val     uint64
	aborted bool
	ok      bool
	cause   htm.AbortCause
}

// tctxTimer is the payload of every delayed reply to the thread: the
// ops that are pure delays (work, abort ack, fallback transitions,
// power handoff) and the node's commit outcome. One per thread: a
// thread has at most one op in flight.
type tctxTimer struct {
	ev  sim.Event
	t   *tctx
	rep opReply
}

// Run delivers the reply. Only a failed commit's reply is aborted when
// scheduled; it acknowledges the abort now, so the core stays Aborted
// for the abort latency. Work inside a transaction that died while it
// ran reports the abort at completion.
func (tt *tctxTimer) Run() {
	t, rep := tt.t, tt.rep
	if rep.aborted {
		t.node.FinishAbort()
	} else if t.req.inTx && !t.node.tx.InTx() {
		rep.aborted = true
	}
	t.finish(rep)
}

// tctxStart is the payload of the thread's first resume, at cycle 0.
type tctxStart struct {
	ev sim.Event
	t  *tctx
}

// Run starts the thread: it runs to its first op.
func (s *tctxStart) Run() { s.t.r.pump(s.t) }

// reply delivers rep to the thread delay cycles from now.
func (t *tctx) reply(delay uint64, rep opReply) {
	t.timer.rep = rep
	t.node.eng.Post(delay, &t.timer.ev)
}

// postCap bounds the ops a thread posts between two yields; each slot
// costs every thread 40 bytes. A kmeans attempt posts 34 ops (its
// begin, 17 adds and 16 works) and so flushes four times. Queues that
// held it whole (40 slots in every thread, or a slice grown per thread)
// cut scale256's resumes from 270k to 183k per pass but measured no
// faster, and the fixed one raised its peak RSS by a fifth.
const postCap = 8

// postedOp is an op the thread posted, with its PRNG state at the time.
type postedOp struct {
	req opReq
	rng sim.Rand
}

// tctx is one simulated thread, run as an iter.Pull coroutine: the
// thread yields each op whose reply it reads to the engine and stays
// suspended until the engine resumes it with the reply, so exactly one
// of {engine, some thread} runs at any instant and the simulation stays
// deterministic. Ops whose reply reports nothing but an abort (Store,
// Add, Work, the begin, the abort acknowledgement, the fallback
// transitions) are posted instead: queued without
// suspending the thread and handed over at its next yield. The engine
// issues each queued op inside the event that completed the one before,
// where a resumed thread would have issued it, so every event keeps its
// (cycle, seq), and resumes the thread only for the yielded op's reply
// or a posted op's abort.
type tctx struct {
	r    *runner
	node *Node
	tid  int
	rng  *sim.Rand

	// Coroutine plumbing: next resumes the thread until its next op
	// (ok=false once it has returned), stop unwinds a suspended thread,
	// yield hands an op to the engine, and rep carries the reply back.
	next  func() (opReq, bool)
	stop  func()
	yield func(opReq) bool
	rep   opReply

	// Posted ops (thread-side): posted[:nposted] are queued since the
	// last yield.
	posted  [postCap]postedOp
	nposted int

	// engine-side bookkeeping
	req   opReq // the op in flight
	qi    int   // index in posted of the op in flight; nposted once it is then
	then  opReq // the op the thread yielded, issued after its posted ops
	start tctxStart
	timer tctxTimer
	acq   spinAcquire
	walk  chainWalk
	// inNext is set while the engine runs a walker's Next, so a Next
	// that calls back into Ctx or Tx fails instead of yielding from
	// the engine.
	inNext bool

	// Fallback-path state (thread-side): the reusable STM descriptor
	// (lazily built on first software fallback) and the elide path's
	// remaining retry budget.
	stm   *stmTx
	elide int

	// panicked is set by the thread before it returns, so pump observes
	// it once next reports the thread finished.
	panicked *ThreadPanic
}

// finish completes the op in flight. A posted op that did not abort
// is followed, inside this event, by the next queued op; the yielded
// op's reply, or a posted op's abort, goes to the thread, which runs to
// its next request. An aborted reply carries the transaction's abort
// cause, except a begin's: a begin that lost the race to the fallback
// lock leaves no abort to acknowledge, and its CauseNone says so.
func (t *tctx) finish(rep opReply) {
	if rep.aborted && t.req.kind != opBegin {
		rep.cause = t.node.tx.Cause
	}
	if t.qi < t.nposted && !rep.aborted {
		t.qi++
		if t.qi < t.nposted {
			t.r.dispatch(t, t.posted[t.qi].req)
		} else {
			t.r.dispatch(t, t.then)
		}
		return
	}
	t.rep = rep
	t.r.pump(t)
}

// onAccessDone completes a Load, Store or Add op: v is the value the
// load read or the store wrote. An Add's load issues its store inside
// this event, where a thread resumed with v would have issued it.
func (t *tctx) onAccessDone(v uint64, aborted bool) {
	if !aborted {
		op := OpLoad
		if t.req.kind == opStore {
			op = OpStore
		}
		t.r.m.emitOp(t.node.id, op, t.req.inTx, t.req.addr, v, 0, true)
		if t.req.kind == opAdd {
			t.req.kind = opStore
			t.req.val += v
			t.node.Store(t.req.addr, t.req.val, t.req.inTx, t)
			return
		}
	}
	t.finish(opReply{val: v, aborted: aborted})
}

// spinAcquire is the opAcquire payload: the test-and-test-and-set loop
// that takes a fallback lock word, run at engine time like the begin-time
// lock poll, so the thread resumes once per acquisition rather than once
// per spin. The word is free when even; the winning CAS makes it odd. A
// held word or a lost CAS waits span plus up to span-1 cycles drawn from
// the thread PRNG, then reloads. The loads, CASes, waits and draws are
// the ones a thread-side test-and-test-and-set loop makes, so every
// event keeps the (cycle, seq) the golden statistics pin.
type spinAcquire struct {
	ev   sim.Event
	t    *tctx
	addr mem.Addr
	span uint64
	want uint64 // the even value the pending CAS expects
	cas  bool   // the access in flight is the CAS, not the load
}

// Run tests the lock word: first at dispatch, then after each wait.
func (s *spinAcquire) Run() {
	s.cas = false
	s.t.node.Load(s.addr, false, s)
}

// onAccessDone takes the lock word's value from the load or the CAS;
// plain accesses never abort.
func (s *spinAcquire) onAccessDone(v uint64, _ bool) {
	t := s.t
	if s.cas {
		swapped := v == s.want
		t.r.m.emitOp(t.node.id, OpCAS, false, s.addr, v, s.want+1, swapped)
		if !swapped {
			s.wait()
			return
		}
		t.finish(opReply{val: v})
		return
	}
	t.r.m.emitOp(t.node.id, OpLoad, false, s.addr, v, 0, true)
	if v&1 != 0 {
		s.wait()
		return
	}
	s.want = v
	s.cas = true
	t.node.CAS(s.addr, v, v+1, s)
}

func (s *spinAcquire) wait() {
	s.t.node.eng.Post(s.span+s.t.rng.Uint64n(s.span), &s.ev)
}

// chainWalk is the opWalk payload: a chain of loads whose next address
// is a pure function of the last value (a list or tree seek, an array
// scan), run at engine time like spinAcquire, so the thread resumes
// once per walk rather than once per load. Each completion emits the
// OpLoad a thread-side load would, asks the walker for the next address
// and issues that load inside the same event, just as a resumed thread
// would, so every event keeps its (cycle, seq).
type chainWalk struct {
	t    *tctx
	w    mem.Walker
	addr mem.Addr
}

func (c *chainWalk) onAccessDone(v uint64, aborted bool) {
	t := c.t
	if aborted {
		c.w = nil
		t.finish(opReply{aborted: true})
		return
	}
	t.r.m.emitOp(t.node.id, OpLoad, t.req.inTx, c.addr, v, 0, true)
	next, more, ok := c.step(v)
	if !ok {
		return // Next panicked: the run is halting
	}
	if !more {
		c.w = nil
		t.finish(opReply{})
		return
	}
	c.addr = next
	t.node.Load(next, t.req.inTx, c)
}

// step runs the walker's Next. A panic there is the workload's bug, so
// it halts the run with this thread's ThreadPanic and leaves the thread
// suspended for run to unwind.
func (c *chainWalk) step(v uint64) (next mem.Addr, more, ok bool) {
	t := c.t
	defer func() {
		if rec := recover(); rec != nil {
			t.inNext = false
			c.w = nil
			t.r.m.eng.Halt(&ThreadPanic{Thread: t.tid, Value: rec, Stack: debug.Stack()})
		}
	}()
	t.inNext = true
	next, more = c.w.Next(v)
	t.inNext = false
	return next, more, true
}

// wdTick is the livelock watchdog's event payload; its event is pending
// while the watchdog is armed.
type wdTick struct {
	ev sim.Event
	r  *runner
}

// Run checks for progress since the last tick. The last thread to
// finish cancels the tick, so it fires only while a thread runs.
func (w *wdTick) Run() {
	r := w.r
	progress := r.m.progress()
	if progress == r.wdLast {
		r.m.eng.Halt(r.m.livelockError(r.m.cfg.WatchdogCycles))
		return
	}
	r.wdLast = progress
	r.armWatchdog()
}

type runner struct {
	m       *Machine
	threads []*tctx
	active  int // threads not yet finished

	// Livelock watchdog (armed when cfg.WatchdogCycles > 0): tick is the
	// progress check, wdLast the Commits+Fallbacks count at the last
	// tick. A tick observing no progress since the previous one halts the
	// run with a diagnostic dump.
	wdLast uint64
	tick   wdTick
}

func newRunner(m *Machine) *runner {
	r := &runner{m: m}
	r.tick.r = r
	r.tick.ev.Bind(&r.tick)
	return r
}

// armWatchdog schedules the next progress check.
func (r *runner) armWatchdog() {
	r.m.eng.Post(r.m.cfg.WatchdogCycles, &r.tick.ev)
}

func (r *runner) run(w Workload) error {
	// Build the full thread list before starting any thread: threads
	// call Ctx.Threads() (len(r.threads)) as soon as they start.
	for i := range r.m.nodes {
		t := &tctx{
			r:    r,
			node: r.m.nodes[i],
			tid:  i,
			rng:  sim.NewRand(r.m.cfg.Seed*7919 + uint64(i) + 101),
		}
		t.start.t = t
		t.start.ev.Bind(&t.start)
		t.timer.t = t
		t.timer.ev.Bind(&t.timer)
		t.node.thread = t
		t.acq.t = t
		t.acq.ev.Bind(&t.acq)
		t.walk.t = t
		if r.m.cfg.Fallback.Kind == FallbackElide {
			t.elide = r.m.cfg.Fallback.elideBudget()
		}
		t.next, t.stop = iter.Pull(t.body(w))
		r.threads = append(r.threads, t)
	}
	// After a failed run (cycle limit, watchdog, starvation, thread
	// panic) threads are still suspended in do; stop unwinds them. It is
	// a no-op for a thread that has returned. Deferred, so a panic
	// inside an engine event (a protocol invariant, a buggy policy)
	// leaks no suspended thread either.
	defer func() {
		for _, t := range r.threads {
			t.stop()
		}
	}()
	r.active = len(r.threads)
	for _, t := range r.threads {
		r.m.eng.Post(0, &t.start.ev)
	}
	if r.m.cfg.WatchdogCycles > 0 {
		r.wdLast = r.m.progress()
		r.armWatchdog()
	}
	_, err := r.m.eng.Run(r.m.cfg.CycleLimit)
	return err
}

// body is the thread's coroutine: it runs the workload's Thread, turning
// a workload panic into t.panicked once the ops posted before it have
// run, so the run fails at the cycle the thread reached the panic.
func (t *tctx) body(w Workload) iter.Seq[opReq] {
	return func(yield func(opReq) bool) {
		t.yield = yield
		if p := t.runThread(w); p != nil {
			if _, alive := t.settle(); alive {
				t.panicked = p
			}
		}
	}
}

// runThread runs the workload's Thread and its posted ops, returning a
// panic as a ThreadPanic and swallowing the killedSignal that unwinds a
// stopped thread.
func (t *tctx) runThread(w Workload) (p *ThreadPanic) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(killedSignal); !ok {
				p = &ThreadPanic{Thread: t.tid, Value: rec, Stack: debug.Stack()}
			}
		}
	}()
	w.Thread(t, t.tid)
	t.flush()
	return nil
}

// pump resumes the thread until it issues its next operation (or
// finishes) and dispatches it. It runs inside engine events; the engine
// is suspended while the thread runs.
func (r *runner) pump(t *tctx) {
	r.m.resumes++
	req, ok := t.next()
	if !ok {
		if t.panicked != nil {
			r.m.eng.Halt(t.panicked)
		}
		r.active--
		if r.active == 0 {
			// Keeping the tick pending would hold the event queue open and
			// inflate the Cycles stat past the last real event.
			r.m.eng.Cancel(&r.tick.ev)
		}
		return
	}
	t.qi = 0
	if t.nposted == 0 {
		r.dispatch(t, req)
		return
	}
	t.then = req
	r.dispatch(t, t.posted[0].req)
}

func (r *runner) dispatch(t *tctx, req opReq) {
	m := r.m
	n := t.node
	t.req = req
	switch req.kind {
	case opLoad, opAdd:
		n.Load(req.addr, req.inTx, t)
	case opStore:
		n.Store(req.addr, req.val, req.inTx, t)
	case opAcquire:
		t.acq.addr = req.addr
		t.acq.span = req.val
		t.acq.Run()
	case opWalk:
		t.walk.addr = req.addr
		n.Load(req.addr, req.inTx, &t.walk)
	case opWork:
		t.reply(max(req.val, 1), opReply{})
	case opBegin:
		if m.cfg.MaxAttempts > 0 && req.attempt > m.cfg.MaxAttempts {
			// Starvation budget exceeded: halt the engine with the dump.
			// No reply is sent, so the thread stays suspended until run
			// stops it once Run returns the error.
			m.eng.Halt(m.starvationError(n.id, req.attempt))
			return
		}
		n.BeginTx(req.attempt, req.power)
	case opCommit:
		n.Commit()
	case opAbortAck:
		n.FinishAbort()
		t.reply(m.cfg.AbortLatency, opReply{})
	case opEnterFallback:
		n.EnterFallback()
		delay := uint64(1)
		if m.inj != nil {
			if d := m.inj.LockBurstDelay(); d > 0 {
				// Contention burst: the lock holder stalls inside the
				// critical section, stressing subscribed transactions.
				m.countFault(n.id, "lockburst")
				delay += d
			}
		}
		t.reply(delay, opReply{})
	case opExitFallback:
		n.ExitFallback()
		t.reply(1, opReply{})
	case opFallbackBodyStart:
		// The STM path opens its occupancy window at body start, so
		// overlapping software fallbacks measure as concurrency; the
		// lock path opens it at EnterFallback instead.
		n.openFallbackClock()
		t.reply(1, opReply{})
	case opAcquirePower:
		t.reply(1, opReply{ok: m.tryAcquirePower(n.id)})
	case opReleasePower:
		m.releasePower(n.id)
		t.reply(1, opReply{})
	case opFlush:
		t.finish(opReply{})
	default:
		n.fail(fmt.Sprintf("unknown op %d", req.kind), req.addr)
	}
}

// ---------- thread-side API ----------

// do hands the posted ops and then req to the engine and suspends the
// thread until req's reply; yield reports false once the run has
// stopped the thread. If a posted op aborted, req was never issued:
// do unwinds the body with txAbort, as that op would have, once t.rng
// is back where it stood when the op was posted.
func (t *tctx) do(req opReq) opReply {
	t.checkNext()
	if !t.yield(req) {
		panic(killedSignal{})
	}
	if t.drain() {
		panic(txAbort{})
	}
	return t.rep
}

// post queues req, an op whose reply the thread reads only for an
// abort, without suspending the thread. A full queue is handed over at
// once.
func (t *tctx) post(req opReq) {
	t.checkNext()
	t.posted[t.nposted] = postedOp{req: req, rng: *t.rng}
	t.nposted++
	if t.nposted == postCap {
		t.flush()
	}
}

// flush runs the posted ops; an abort among them unwinds as in do.
func (t *tctx) flush() {
	if t.nposted > 0 {
		t.do(opReq{kind: opFlush})
	}
}

// settle is flush for a thread already unwinding with a panic: it
// reports whether a posted op aborted (t.rng then rolled back as in do)
// and whether the thread is still alive, false once the run has
// stopped it, rather than unwinding again.
func (t *tctx) settle() (aborted, alive bool) {
	if t.nposted == 0 {
		return false, true
	}
	if !t.yield(opReq{kind: opFlush}) {
		return false, false
	}
	return t.drain(), true
}

// drain empties the queue the engine has just run and reports whether
// one of its ops aborted, rolling t.rng back to that op's post.
func (t *tctx) drain() bool {
	n := t.nposted
	t.nposted = 0
	if t.qi < n {
		*t.rng = t.posted[t.qi].rng
		return true
	}
	return false
}

// checkNext fails a Walker's Next that calls back into Ctx or Tx.
func (t *tctx) checkNext() {
	if t.inNext {
		panic(fmt.Sprintf("machine: cycle %d core %d: a Walker's Next called back into Ctx or Tx", t.r.m.eng.Now(), t.node.id))
	}
}

func (t *tctx) TID() int        { return t.tid }
func (t *tctx) Threads() int    { return len(t.r.threads) }
func (t *tctx) Rand() *sim.Rand { return t.rng }

func (t *tctx) Load(a mem.Addr) uint64 {
	return t.do(opReq{kind: opLoad, addr: a}).val
}

func (t *tctx) Store(a mem.Addr, v uint64) {
	t.post(opReq{kind: opStore, addr: a, val: v})
}

func (t *tctx) Walk(first mem.Addr, w mem.Walker) {
	t.walk.w = w
	t.do(opReq{kind: opWalk, addr: first})
}

func (t *tctx) Add(a mem.Addr, d uint64) {
	t.post(opReq{kind: opAdd, addr: a, val: d})
}

func (t *tctx) Work(n uint64) {
	t.post(opReq{kind: opWork, val: n})
}

// maxBackoffDelay caps one backoff wait. Without the cap a huge
// BackoffBase (or base == MaxUint64, where base+1 wraps to zero) would
// overflow the shift/add below into a tiny or bogus delay.
const maxBackoffDelay = 1 << 32

// backoff computes the randomized retry delay after the given number of
// aborts, per the configured backoff variant. Every variant draws
// exactly once from the thread PRNG so the random stream — and with it
// run determinism — is independent of both the clamping and the
// variant. The default (exponential, Cap 0) is bit-identical to the
// historical formula.
func (t *tctx) backoff(aborts int) uint64 {
	shift := aborts
	if shift > 5 {
		shift = 5
	}
	base := t.r.m.cfg.BackoffBase
	if base > maxBackoffDelay {
		base = maxBackoffDelay
	}
	bc := t.r.m.cfg.Backoff
	cap := bc.Cap
	if cap == 0 || cap > maxBackoffDelay {
		cap = maxBackoffDelay
	}
	switch bc.Kind {
	case BackoffLinear:
		n := uint64(aborts)
		if n > 64 {
			n = 64
		}
		d := base * n
		if d > cap {
			d = cap
		}
		return d + t.rng.Uint64n(base+1)
	case BackoffJitter:
		d := base << uint(shift)
		if d > cap {
			d = cap
		}
		return t.rng.Uint64n(d + 1)
	default:
		d := base << uint(shift)
		if d > cap {
			d = cap
		}
		return d + t.rng.Uint64n(base+1)
	}
}

// Atomic implements the retry / power-token / fallback state machine
// of Section VI-D around the hardware transaction: wait with
// randomized backoff after every abort, fall back past the policy's
// retry budget. Which software path the fallback takes — global lock,
// STM, or elision — is the machine's Fallback config.
func (t *tctx) Atomic(body func(tx Tx)) {
	traits := t.node.policy.Traits()
	m := t.r.m
	totalAborts := 0
	contentionAborts := 0
	powerMode := false
	powerAttempts := 0
	attempt := 0
	for {
		if traits.UsesPower && !powerMode &&
			(contentionAborts >= traits.PowerAfterAborts || totalAborts >= traits.Retries) {
			// Elevate if the token is free; otherwise keep executing
			// normally and try again after the next abort.
			powerMode = t.do(opReq{kind: opAcquirePower}).ok
		}
		useLock := false
		if powerMode {
			useLock = powerAttempts >= m.cfg.PowerAttemptLimit
		} else if !traits.UsesPower {
			useLock = totalAborts > traits.Retries
		}
		if useLock && t.elideExtend() {
			useLock = false // spent elide budget on one more attempt
		}
		if useLock {
			t.runFallback(body)
			if powerMode {
				t.post(opReq{kind: opReleasePower})
			}
			return
		}
		attempt++
		committed, cause := t.runSpec(body, opReq{kind: opBegin, attempt: attempt, power: powerMode})
		if committed {
			t.noteCommitBudget()
			return // a power commit released the token engine-side
		}
		if cause == htm.CauseNone {
			continue // the begin raced with a lock acquisition; just re-begin
		}
		if powerMode {
			powerAttempts++
		}
		if cause != htm.CauseLock {
			totalAborts++
			switch cause {
			case htm.CauseConflict, htm.CauseValidation, htm.CauseCycle, htm.CauseStall:
				contentionAborts++
			}
			t.node.stats.CMWaits++
			t.post(opReq{kind: opWork, val: t.backoff(totalAborts)})
		}
	}
}

// runSpec posts begin and executes the body speculatively once behind
// it, converting the abort panic back into a (committed=false, cause)
// result and posting the abort's acknowledgement; a begin that lost the
// race to the lock returns CauseNone and posts nothing. The begin is
// posted inside, because posting it can hand over a full queue and so
// learn that it lost. A body that panics otherwise may have run past a
// posted op that aborted; the ops run first, and if one aborted, the
// body never reached its panic, so the attempt is an abort like any
// other.
func (t *tctx) runSpec(body func(Tx), begin opReq) (committed bool, cause htm.AbortCause) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(txAbort); !ok {
				if _, ok := rec.(killedSignal); ok {
					panic(rec)
				}
				aborted, alive := t.settle()
				if !alive {
					panic(killedSignal{})
				}
				if !aborted {
					panic(rec)
				}
			}
			committed = false
			cause = t.rep.cause
			if cause != htm.CauseNone {
				t.post(opReq{kind: opAbortAck})
			}
		}
	}()
	t.post(begin)
	body(txHandle{t: t})
	rep := t.do(opReq{kind: opCommit})
	if rep.aborted {
		return false, rep.cause
	}
	return true, htm.CauseNone
}

// Spin spans of the two lock kinds: a held lock or a lost CAS waits
// span + [0, span) cycles before the next test.
const (
	globalLockSpan = 64
	stmLockSpan    = 8
)

// acquire takes the lock word at a (free when even) and returns the
// value it held before the winning CAS.
func (t *tctx) acquire(a mem.Addr, span uint64) uint64 {
	return t.do(opReq{kind: opAcquire, addr: a, val: span}).val
}

// fallbackLock serializes through the global lock: test-test-and-set
// acquire, non-speculative body, release. Running transactions abort via
// their eager lock subscription when the CAS takes the line.
func (t *tctx) fallbackLock(body func(Tx)) {
	la := t.r.m.lockAddr
	t.acquire(la, globalLockSpan)
	t.post(opReq{kind: opEnterFallback})
	body(txHandle{t: t, fallback: true})
	t.post(opReq{kind: opExitFallback})
	t.post(opReq{kind: opStore, addr: la, val: 0})
}

// txHandle implements Tx. With fallback unset the operations are
// transactional and panic on abort; on the fallback path they are plain.
type txHandle struct {
	t        *tctx
	fallback bool
}

func (h txHandle) Rand() *sim.Rand { return h.t.rng }
func (h txHandle) Fallback() bool  { return h.fallback }

func (h txHandle) Load(a mem.Addr) uint64 {
	rep := h.t.do(opReq{kind: opLoad, addr: a, inTx: !h.fallback})
	if rep.aborted {
		panic(txAbort{})
	}
	return rep.val
}

func (h txHandle) Store(a mem.Addr, v uint64) {
	h.t.post(opReq{kind: opStore, addr: a, val: v, inTx: !h.fallback})
}

func (h txHandle) Walk(first mem.Addr, w mem.Walker) {
	h.t.walk.w = w
	if h.t.do(opReq{kind: opWalk, addr: first, inTx: !h.fallback}).aborted {
		panic(txAbort{})
	}
}

func (h txHandle) Add(a mem.Addr, d uint64) {
	h.t.post(opReq{kind: opAdd, addr: a, val: d, inTx: !h.fallback})
}

func (h txHandle) Work(n uint64) {
	h.t.post(opReq{kind: opWork, val: n, inTx: !h.fallback})
}
