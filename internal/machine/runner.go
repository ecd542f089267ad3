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
	// Load reads a word non-transactionally.
	Load(a mem.Addr) uint64
	// Store writes a word non-transactionally.
	Store(a mem.Addr, v uint64)
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
	// Work consumes n cycles of computation.
	Work(n uint64)
}

// Tx is the handle the Atomic body uses. Inside a hardware transaction
// the accesses are speculative; on the fallback path they are plain
// accesses protected by the global lock.
type Tx interface {
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	// Walk is Ctx.Walk inside the transaction: when a load of the chain
	// finds the transaction dead, Walk unwinds the body as Load would.
	Walk(first mem.Addr, w mem.Walker)
	Work(n uint64)
	TID() int
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
	opCAS
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
)

type opReq struct {
	kind    opKind
	addr    mem.Addr
	val     uint64
	val2    uint64
	inTx    bool
	power   bool
	attempt int
}

type opReply struct {
	val     uint64
	aborted bool
	ok      bool
	swapped bool
	cause   htm.AbortCause
}

// tctxTimer is the payload for the thread ops that are pure delays
// (work, abort ack, fallback transitions, power handoff). One per
// thread: a suspended thread has at most one op in flight.
type tctxTimer struct {
	t     *tctx
	op    opKind
	ok    bool
	cause htm.AbortCause
}

// Run completes the delayed op and wakes the thread.
func (tt *tctxTimer) Run() {
	t := tt.t
	switch tt.op {
	case opWork:
		// A transaction may have died while the work was in progress;
		// report it at completion, like the original deferred check.
		t.finish(opReply{aborted: t.req.inTx && !t.node.tx.InTx()})
	case opAbortAck:
		t.finish(opReply{cause: tt.cause})
	default:
		t.finish(opReply{ok: tt.ok})
	}
}

// tctx is one simulated thread, run as an iter.Pull coroutine: the
// thread yields each op to the engine and stays suspended until the
// engine resumes it with the reply, so exactly one of {engine, some
// thread} runs at any instant and the simulation stays deterministic.
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

	// engine-side bookkeeping
	req   opReq // the op in flight
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

// finish completes the pending op: hand the reply to the thread and run
// it to its next request.
func (t *tctx) finish(rep opReply) {
	t.rep = rep
	t.r.pump(t)
}

// Completion handlers for the node's asynchronous operations; they
// mirror the per-op closures dispatch used to allocate.

func (t *tctx) onLoadDone(v uint64, aborted bool) {
	if !aborted {
		t.r.m.emitOp(t.node.id, OpLoad, t.req.inTx, t.req.addr, v, 0, true)
	}
	t.finish(opReply{val: v, aborted: aborted})
}

func (t *tctx) onStoreDone(aborted bool) {
	if !aborted {
		t.r.m.emitOp(t.node.id, OpStore, t.req.inTx, t.req.addr, t.req.val, 0, true)
	}
	t.finish(opReply{aborted: aborted})
}

func (t *tctx) onCASDone(prev uint64, swapped bool) {
	t.r.m.emitOp(t.node.id, OpCAS, false, t.req.addr, prev, t.req.val2, swapped)
	t.finish(opReply{val: prev, swapped: swapped})
}

func (t *tctx) onBeginDone(ok bool) { t.finish(opReply{ok: ok}) }

func (t *tctx) onCommitDone(committed bool) {
	if committed {
		t.finish(opReply{ok: true})
	} else {
		t.finish(opReply{aborted: true, cause: t.node.FinishAbort()})
	}
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
	t    *tctx
	addr mem.Addr
	span uint64
	want uint64 // the even value the pending CAS expects
}

// Run reloads the lock word after a wait.
func (s *spinAcquire) Run() { s.t.node.Load(s.addr, false, s) }

// onLoadDone: a plain load never aborts.
func (s *spinAcquire) onLoadDone(v uint64, _ bool) {
	t := s.t
	t.r.m.emitOp(t.node.id, OpLoad, false, s.addr, v, 0, true)
	if v&1 != 0 {
		s.wait()
		return
	}
	s.want = v
	t.node.CAS(s.addr, v, v+1, s)
}

func (s *spinAcquire) onCASDone(prev uint64, swapped bool) {
	t := s.t
	t.r.m.emitOp(t.node.id, OpCAS, false, s.addr, prev, s.want+1, swapped)
	if !swapped {
		s.wait()
		return
	}
	t.finish(opReply{val: prev, swapped: true})
}

func (s *spinAcquire) wait() {
	s.t.node.eng.ScheduleRunner(s.span+s.t.rng.Uint64n(s.span), s)
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

func (c *chainWalk) onLoadDone(v uint64, aborted bool) {
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

// wdTick is the livelock watchdog's event payload.
type wdTick struct{ r *runner }

// Run checks for progress since the last tick.
func (w *wdTick) Run() {
	r := w.r
	r.wd = nil
	if r.active == 0 {
		return
	}
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

	// Livelock watchdog (armed when cfg.WatchdogCycles > 0): wd is the
	// pending tick event, wdLast the Commits+Fallbacks count at the last
	// tick. A tick observing no progress since the previous one halts the
	// run with a diagnostic dump.
	wd     *sim.Event
	wdLast uint64
	tick   wdTick
}

func newRunner(m *Machine) *runner {
	r := &runner{m: m}
	r.tick.r = r
	return r
}

// armWatchdog schedules the next progress check.
func (r *runner) armWatchdog() {
	r.wd = r.m.eng.ScheduleRunner(r.m.cfg.WatchdogCycles, &r.tick)
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
		t.timer.t = t
		t.acq.t = t
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
		t := t
		r.m.eng.Schedule(0, func() { r.pump(t) })
	}
	if r.m.cfg.WatchdogCycles > 0 {
		r.wdLast = r.m.progress()
		r.armWatchdog()
	}
	_, err := r.m.eng.Run(r.m.cfg.CycleLimit)
	return err
}

// body is the thread's coroutine: it runs the workload's Thread, turning
// a workload panic into t.panicked and swallowing the killedSignal that
// unwinds a stopped thread.
func (t *tctx) body(w Workload) iter.Seq[opReq] {
	return func(yield func(opReq) bool) {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(killedSignal); !ok {
					t.panicked = &ThreadPanic{Thread: t.tid, Value: rec, Stack: debug.Stack()}
				}
			}
		}()
		t.yield = yield
		w.Thread(t, t.tid)
	}
}

// pump resumes the thread until it issues its next operation (or
// finishes) and dispatches it. It runs inside engine events; the engine
// is suspended while the thread runs.
func (r *runner) pump(t *tctx) {
	req, ok := t.next()
	if !ok {
		if t.panicked != nil {
			r.m.eng.Halt(t.panicked)
		}
		r.active--
		if r.active == 0 && r.wd != nil {
			// Keeping the tick pending would hold the event queue open and
			// inflate the Cycles stat past the last real event.
			r.m.eng.Cancel(r.wd)
			r.wd = nil
		}
		return
	}
	r.dispatch(t, req)
}

func (r *runner) dispatch(t *tctx, req opReq) {
	m := r.m
	n := t.node
	t.req = req
	switch req.kind {
	case opLoad:
		n.Load(req.addr, req.inTx, t)
	case opStore:
		n.Store(req.addr, req.val, req.inTx, t)
	case opCAS:
		n.CAS(req.addr, req.val, req.val2, t)
	case opAcquire:
		t.acq.addr = req.addr
		t.acq.span = req.val
		n.Load(req.addr, false, &t.acq)
	case opWalk:
		t.walk.addr = req.addr
		n.Load(req.addr, req.inTx, &t.walk)
	case opWork:
		cycles := req.val
		if cycles == 0 {
			cycles = 1
		}
		t.timer.op = opWork
		n.eng.ScheduleRunner(cycles, &t.timer)
	case opBegin:
		if m.cfg.MaxAttempts > 0 && req.attempt > m.cfg.MaxAttempts {
			// Starvation budget exceeded: halt the engine with the dump.
			// No reply is sent, so the thread stays suspended until run
			// stops it once Run returns the error.
			m.eng.Halt(m.starvationError(n.id, req.attempt))
			return
		}
		n.BeginTx(req.attempt, req.power, t)
	case opCommit:
		n.Commit(t)
	case opAbortAck:
		t.timer.op = opAbortAck
		t.timer.cause = n.FinishAbort()
		n.eng.ScheduleRunner(m.cfg.AbortLatency, &t.timer)
	case opEnterFallback:
		n.EnterFallback()
		if !n.fbTiming {
			n.fbTiming = true
			n.fbStart = m.eng.Now()
		}
		delay := uint64(1)
		if m.inj != nil {
			if d := m.inj.LockBurstDelay(); d > 0 {
				// Contention burst: the lock holder stalls inside the
				// critical section, stressing subscribed transactions.
				m.countFault(n.id, "lockburst")
				delay += d
			}
		}
		t.timer.op = opEnterFallback
		t.timer.ok = true
		n.eng.ScheduleRunner(delay, &t.timer)
	case opExitFallback:
		n.ExitFallback()
		if n.fbTiming {
			n.stats.FallbackBodyCycles += m.eng.Now() - n.fbStart
			n.fbTiming = false
		}
		t.timer.op = opExitFallback
		t.timer.ok = true
		n.eng.ScheduleRunner(1, &t.timer)
	case opFallbackBodyStart:
		// The STM path opens its occupancy window at body start, so
		// overlapping software fallbacks measure as concurrency; the
		// lock path opens it at opEnterFallback instead.
		if !n.fbTiming {
			n.fbTiming = true
			n.fbStart = m.eng.Now()
		}
		t.timer.op = opFallbackBodyStart
		t.timer.ok = true
		n.eng.ScheduleRunner(1, &t.timer)
	case opAcquirePower:
		t.timer.op = opAcquirePower
		t.timer.ok = m.tryAcquirePower(n.id)
		n.eng.ScheduleRunner(1, &t.timer)
	case opReleasePower:
		m.releasePower(n.id)
		t.timer.op = opReleasePower
		t.timer.ok = true
		n.eng.ScheduleRunner(1, &t.timer)
	default:
		panic("machine: unknown op")
	}
}

// ---------- thread-side API ----------

// do hands req to the engine and suspends the thread until the reply;
// yield reports false once the run has stopped the thread.
func (t *tctx) do(req opReq) opReply {
	if t.inNext {
		panic("machine: a Walker's Next called back into Ctx or Tx")
	}
	if !t.yield(req) {
		panic(killedSignal{})
	}
	return t.rep
}

func (t *tctx) TID() int        { return t.tid }
func (t *tctx) Threads() int    { return len(t.r.threads) }
func (t *tctx) Rand() *sim.Rand { return t.rng }

func (t *tctx) Load(a mem.Addr) uint64 {
	return t.do(opReq{kind: opLoad, addr: a}).val
}

func (t *tctx) Store(a mem.Addr, v uint64) {
	t.do(opReq{kind: opStore, addr: a, val: v})
}

func (t *tctx) Walk(first mem.Addr, w mem.Walker) {
	t.walk.w = w
	t.do(opReq{kind: opWalk, addr: first})
}

func (t *tctx) Work(n uint64) {
	t.do(opReq{kind: opWork, val: n})
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
// of Section VI-D around the hardware transaction. The fixed
// contention manager reproduces the paper's loop exactly (wait with
// randomized backoff after every abort, fall back past the policy's
// retry budget); the adaptive manager replaces the fixed retry budget
// with its online speculate/wait/fallback verdict. Which software path
// the fallback takes — global lock, STM, or elision — is the machine's
// Fallback config.
func (t *tctx) Atomic(body func(tx Tx)) {
	traits := t.node.policy.Traits()
	m := t.r.m
	totalAborts := 0
	contentionAborts := 0
	powerMode := false
	powerAttempts := 0
	attempt := 0
	earlyFallback := false
	for {
		if traits.UsesPower && !powerMode &&
			(contentionAborts >= traits.PowerAfterAborts || totalAborts >= traits.Retries) {
			// Elevate if the token is free; otherwise keep executing
			// normally and try again after the next abort.
			powerMode = t.do(opReq{kind: opAcquirePower}).ok
		}
		useLock := earlyFallback
		if !useLock {
			if powerMode {
				useLock = powerAttempts >= m.cfg.PowerAttemptLimit
			} else if !traits.UsesPower && m.cm == nil {
				useLock = totalAborts > traits.Retries
			}
			if useLock && t.elideExtend() {
				useLock = false // spent elide budget on one more attempt
			}
		}
		if useLock {
			t.runFallback(body)
			if powerMode {
				t.do(opReq{kind: opReleasePower})
			}
			return
		}
		attempt++
		if !t.do(opReq{kind: opBegin, attempt: attempt, power: powerMode}).ok {
			continue // raced with a lock acquisition; just re-begin
		}
		if powerMode {
			powerAttempts++
		}
		committed, cause := t.runSpec(body)
		if committed {
			t.noteCommitBudget()
			return // a power commit released the token engine-side
		}
		if cause != htm.CauseLock {
			totalAborts++
			switch cause {
			case htm.CauseConflict, htm.CauseValidation, htm.CauseCycle, htm.CauseStall:
				contentionAborts++
			}
			act := htm.CMWait
			if m.cm != nil {
				act = m.cm.Decide(t.tid)
			}
			m.emitCMDecision(t.node.id, act)
			switch act {
			case htm.CMSpeculate:
				t.node.stats.CMSpecs++
			case htm.CMFallback:
				t.node.stats.CMFallbacks++
				earlyFallback = true
			default:
				t.node.stats.CMWaits++
				d := t.backoff(totalAborts)
				if m.cm != nil {
					// The adaptive wait draws from the manager's
					// dedicated stream, not the thread PRNG.
					d = m.cm.WaitDelay(t.tid)
				}
				t.do(opReq{kind: opWork, val: d})
			}
		}
	}
}

// runSpec executes the body speculatively once, converting the abort
// panic back into a (committed=false, cause) result.
func (t *tctx) runSpec(body func(Tx)) (committed bool, cause htm.AbortCause) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(txAbort); !ok {
				panic(rec)
			}
			rep := t.do(opReq{kind: opAbortAck})
			committed = false
			cause = rep.cause
		}
	}()
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
	t.do(opReq{kind: opEnterFallback})
	body(txHandle{t: t, fallback: true})
	t.do(opReq{kind: opExitFallback})
	t.do(opReq{kind: opStore, addr: la, val: 0})
}

// txHandle implements Tx. With fallback unset the operations are
// transactional and panic on abort; on the fallback path they are plain.
type txHandle struct {
	t        *tctx
	fallback bool
}

func (h txHandle) TID() int        { return h.t.tid }
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
	rep := h.t.do(opReq{kind: opStore, addr: a, val: v, inTx: !h.fallback})
	if rep.aborted {
		panic(txAbort{})
	}
}

func (h txHandle) Walk(first mem.Addr, w mem.Walker) {
	h.t.walk.w = w
	if h.t.do(opReq{kind: opWalk, addr: first, inTx: !h.fallback}).aborted {
		panic(txAbort{})
	}
}

func (h txHandle) Work(n uint64) {
	rep := h.t.do(opReq{kind: opWork, val: n, inTx: !h.fallback})
	if rep.aborted {
		panic(txAbort{})
	}
}
