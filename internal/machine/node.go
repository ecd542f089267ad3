package machine

import (
	"fmt"

	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// accessDone receives a demand access's outcome: v is the value a load
// read, a store wrote or a CAS found (it swapped iff v is the value it
// expected), and aborted means the surrounding transaction died first.
// The thread, its engine-side loops and the begin state machine
// implement it; an interface over pooled structs, unlike a func value,
// keeps the request path free of per-operation allocations.
type accessDone interface{ onAccessDone(v uint64, aborted bool) }

// pendingWB is a writeback in flight; a probe served from it cancels the
// in-flight message. It is its own delivery event payload.
type pendingWB struct {
	ev        sim.Event
	n         *Node
	tag       mem.Addr
	data      mem.Line
	cancelled bool
}

// Run delivers the writeback at the directory.
func (wb *pendingWB) Run() {
	n, tag := wb.n, wb.tag
	if n.wbPending[tag] == wb {
		delete(n.wbPending, tag)
	}
	n.m.dir.WriteBack(tag, wb.data, n.id, &wb.cancelled)
	// The delivery message runs exactly once per writeback and is
	// the last reference (probe service and reinstall both remove
	// the entry from wbPending but copy the data out), so this is
	// the one safe recycling point.
	n.wbFree.Put(wb)
}

// Node is one core: private L1, HTM state, the VSB validation controller
// and the probe handler. All methods run at engine time; completion
// callbacks are invoked at engine time too.
type Node struct {
	id     int
	m      *Machine
	eng    *sim.Engine
	l1     *cache.Cache
	tx     *htm.TxState
	policy htm.Policy
	rng    *sim.Rand

	// stats is the node's RunStats shard, folded into the machine totals
	// by collectStats.
	stats RunStats

	wbPending map[mem.Addr]*pendingWB
	// wbFree recycles pendingWB objects once their delivery message has
	// run; dirty evictions are frequent enough in the capacity-bound
	// workloads that the per-eviction allocation showed up in profiles.
	wbFree sim.FreeList[pendingWB]

	// thread is the core's thread; BeginTx and Commit reply to it.
	thread *tctx

	// Reusable event payloads, each with its own embedded event. A thread
	// stays suspended until its op completes, so at most one demand
	// access and one begin is in flight per core, and valInFlight and
	// the timer's pending event guard the validation pair, so a single
	// instance of each carries its whole flow without allocating; Post
	// panics if one were ever scheduled twice.
	acc     access
	beg     beginOp
	val     valOp
	valTick valTimerOp

	// pendingStore is the line of the in-flight demand GetX, if any — the
	// Rrestrict/W heuristic's "currently in-flight write from the local
	// core" signal (Section VI-D).
	pendingStore    mem.Addr
	hasPendingStore bool

	valInFlight bool

	// validatedThisTx counts VSB entries validated by the current
	// transaction (reported through the tracer at commit).
	validatedThisTx int

	// Fallback-occupancy clock: fbStart is when this core's current
	// fallback section opened (openFallbackClock, at the STM body start
	// or the lock-path EnterFallback); ExitFallback adds the interval to
	// the FallbackBodyCycles shard. Engine-side only.
	fbStart  uint64
	fbTiming bool
}

func newNode(id int, m *Machine, policy htm.Policy) *Node {
	traits := policy.Traits()
	vsb := traits.VSBSize
	if vsb <= 0 {
		vsb = 1
	}
	n := &Node{
		id:        id,
		m:         m,
		eng:       m.eng,
		l1:        cache.New(m.cfg.L1Size, m.cfg.L1Ways),
		tx:        htm.NewTxState(vsb),
		policy:    policy,
		rng:       sim.NewRand(m.cfg.Seed*1000003 + uint64(id) + 1),
		wbPending: make(map[mem.Addr]*pendingWB),
	}
	n.tx.L1 = n.l1
	n.acc.n = n
	n.acc.ev.Bind(&n.acc)
	n.beg.n = n
	n.beg.ev.Bind(&n.beg)
	n.val.n = n
	n.val.ev.Bind(&n.val)
	n.valTick.n = n
	n.valTick.ev.Bind(&n.valTick)
	return n
}

func (n *Node) reqInfo(inTx, isValidation bool) coherence.ReqInfo {
	ri := coherence.ReqInfo{ID: n.id, IsTx: inTx && n.tx.InTx(), IsValidation: isValidation}
	if ri.IsTx {
		ri.PiC = n.tx.PiC
		ri.Power = n.tx.Power
		ri.TS = n.tx.TS
	}
	return ri
}

// fail panics on a broken protocol invariant, naming the cycle, core
// and line so the message alone locates the fault.
func (n *Node) fail(what string, line mem.Addr) {
	panic(fmt.Sprintf("machine: cycle %d core %d line %v: %s", n.eng.Now(), n.id, line, what))
}

// install puts a line in L1, handling the victim, and returns its
// entry. It returns nil when the set is full of write-set lines
// (transactional overflow).
func (n *Node) install(line mem.Addr, st cache.State, data mem.Line, sm, spec bool) *cache.Entry {
	v, evicted, e := n.l1.Insert(line, st, data)
	if e == nil {
		return nil
	}
	if sm {
		n.l1.MarkSM(e)
	} else {
		e.SM = false // the fresh data replaces any speculative copy
	}
	e.Spec = spec
	e.Dirty = false
	if evicted {
		n.handleVictim(v)
	}
	return e
}

func (n *Node) handleVictim(v cache.Victim) {
	if v.SM {
		n.fail("replacement evicted an SM line", v.Tag)
	}
	if v.State == cache.Modified && v.Dirty {
		wb := n.allocWB()
		wb.tag = v.Tag
		wb.data = v.Data
		n.wbPending[v.Tag] = wb
		// While the message is in flight, a probe served from wbPending or
		// a reinstall can cancel it; the delivery observes the flag.
		n.m.net.PostData(&wb.ev)
	}
	// Clean lines (E, M-clean, S) drop silently; the directory tolerates
	// it because the memory image holds their committed value.
}

// allocWB takes a writeback-buffer entry from the free list (or the
// heap on first use), reset for a fresh writeback.
func (n *Node) allocWB() *pendingWB {
	wb := n.wbFree.Get()
	if wb == nil {
		wb = &pendingWB{n: n}
		wb.ev.Bind(wb)
	}
	wb.cancelled = false
	return wb
}

// reinstall recovers a line whose writeback is still in flight (a hit in
// the writeback buffer). Returns the entry, or nil if it could not be
// re-inserted (set full of SM lines).
func (n *Node) reinstall(line mem.Addr) *cache.Entry {
	wb, ok := n.wbPending[line]
	if !ok {
		return nil
	}
	wb.cancelled = true
	delete(n.wbPending, line)
	e := n.install(line, cache.Modified, wb.data, false, false)
	if e != nil {
		e.Dirty = true
	}
	return e
}

// ---------- demand access state machine ----------

// access kinds.
const (
	accLoad uint8 = iota
	accStore
	accCAS
)

// access stages. Each stage is one scheduled event in the original
// closure chain: L1 lookup, L2 traversal, network hop to the directory,
// retry timers, and the lazy-versioning writeback round trip.
const (
	stStart     uint8 = iota // L1 latency charged: run the access
	stIssue                  // L2 latency charged: send the request
	stReq                    // request delivered at the directory
	stNackRetry              // nack retry delay elapsed
	stVSBRetry               // VSB retry delay elapsed
	stWBData                 // lazy-versioning writeback delivered
	stWBAck                  // writeback acknowledged back at the core
)

// access is the node's demand-access (load/store/CAS) flow. A thread
// stays suspended until its op completes, so one is in flight per core
// and a single embedded instance carries the whole chain with zero
// allocations.
type access struct {
	ev        sim.Event
	n         *Node
	kind      uint8
	stage     uint8
	a         mem.Addr
	v         uint64 // store value, or the value a CAS swaps in
	old       uint64 // the value a CAS expects
	inTx      bool
	epoch     uint64
	nackTries int
	vsbTries  int
	// ri is the request metadata, sampled when the request leaves the
	// core (stIssue), not when it reaches the directory: transaction
	// state may change during the network hop (e.g. Commit flipping
	// tx.Status), and the request carries what the core sent.
	ri     coherence.ReqInfo
	wbData mem.Line // lazy-versioning writeback payload
	done   accessDone
}

// Load performs a (transactional or plain) word load; done receives the
// value, or aborted=true if the surrounding transaction died.
func (n *Node) Load(a mem.Addr, inTx bool, done accessDone) {
	n.demand(accLoad, a, 0, 0, inTx, done)
}

// Store performs a (transactional or plain) word store.
func (n *Node) Store(a mem.Addr, v uint64, inTx bool, done accessDone) {
	n.demand(accStore, a, 0, v, inTx, done)
}

// CAS performs a non-transactional compare-and-swap (used by the
// fallback locks). done receives the previous value; the swap happened
// iff it equals old.
func (n *Node) CAS(a mem.Addr, old, new uint64, done accessDone) {
	n.demand(accCAS, a, old, new, false, done)
}

// demand sets up the node's access and runs it after the L1 latency.
func (n *Node) demand(kind uint8, a mem.Addr, old, v uint64, inTx bool, done accessDone) {
	c := &n.acc
	c.kind = kind
	c.stage = stStart
	c.a = a
	c.old = old
	c.v = v
	c.inTx = inTx
	c.nackTries = 0
	c.vsbTries = 0
	c.done = done
	n.eng.Post(n.m.cfg.L1Latency, &c.ev)
}

// Run advances the access to its next stage.
func (c *access) Run() {
	n := c.n
	switch c.stage {
	case stStart, stNackRetry, stVSBRetry:
		c.start()
	case stIssue:
		c.stage = stReq
		c.ri = n.reqInfo(c.inTx, false)
		n.m.net.PostControl(&c.ev)
	case stReq:
		if c.kind == accLoad {
			n.m.dir.GetS(c.a.Line(), c.ri, c)
		} else {
			n.m.dir.GetX(c.a.Line(), c.ri, c)
		}
	case stWBData:
		// The writeback landed at the directory; ack back to the core.
		c.stage = stWBAck
		n.m.dir.WriteBackData(c.a.Line(), c.wbData)
		n.m.net.PostControl(&c.ev)
	case stWBAck:
		if cur := n.l1.Peek(c.a.Line()); cur != nil {
			cur.Dirty = false
		}
		c.start()
	default:
		n.fail(fmt.Sprintf("bad access stage %d", c.stage), c.a.Line())
	}
}

// start runs the access at the L1: it serves it from a line the L1 (or
// the writeback buffer) holds with the permission it needs, and sends
// it to the directory otherwise.
func (c *access) start() {
	n := c.n
	if c.inTx && !n.tx.InTx() {
		c.done.onAccessDone(0, true)
		return
	}
	if c.inTx && n.m.inj != nil && n.m.inj.SpuriousAbort() {
		// Best-effort HTM: a transaction may abort at any access boundary
		// for no architectural reason.
		n.m.countFault(n.id, "spurious")
		n.abortTx(htm.CauseSpurious)
		c.done.onAccessDone(0, true)
		return
	}
	line := c.a.Line()
	e := n.l1.Lookup(line)
	if e == nil {
		e = n.reinstall(line)
	}
	if e != nil && c.complete(e) {
		return
	}
	c.epoch = n.tx.Epoch
	if c.kind == accStore && c.inTx {
		n.pendingStore = line
		n.hasPendingStore = true
	}
	c.issueL2()
}

// complete performs the access on line e and reports it done: a load
// marks the read set, a store writes (a transactional one into the
// write set), a CAS writes only when the word holds the value it
// expects. It reports false, leaving the access for the directory, when
// e lacks the permission the access needs: a store or CAS to a Shared
// line, or a CAS to a write-set line.
func (c *access) complete(e *cache.Entry) bool {
	n := c.n
	w := c.a.WordIndex()
	v := e.Data[w]
	exclusive := e.State == cache.Modified || e.State == cache.Exclusive
	switch c.kind {
	case accLoad:
		if c.inTx {
			n.l1.MarkRead(e)
		}
	case accStore:
		switch {
		case e.SM:
			// Already in the write set (possibly a spec-received fiction).
		case !exclusive:
			return false
		case c.inTx && e.Dirty:
			// Lazy versioning: the committed value must reach the LLC
			// before the first speculative write, so a later silent
			// gang-invalidation cannot lose it. The store stalls until
			// the writeback lands and is acked.
			c.wbData = e.Data
			c.stage = stWBData
			n.m.net.PostData(&c.ev)
			return true
		case c.inTx:
			n.l1.MarkSM(e)
		default:
			e.State = cache.Modified
			e.Dirty = true
		}
		e.Data[w] = c.v
		v = c.v
	case accCAS:
		if e.SM || !exclusive {
			return false
		}
		if v == c.old {
			e.State = cache.Modified
			e.Dirty = true
			e.Data[w] = c.v
		}
	}
	c.done.onAccessDone(v, false)
	return true
}

// HandleResp receives the directory's response.
func (c *access) HandleResp(resp coherence.Resp) {
	n := c.n
	line := c.a.Line()
	if c.kind == accStore && c.inTx {
		n.hasPendingStore = false
	}
	stale := c.inTx && n.tx.Epoch != c.epoch
	switch resp.Kind {
	case coherence.RespData:
		st := cache.Modified
		if c.kind == accLoad {
			st = cache.Shared
			if resp.Excl {
				st = cache.Exclusive
			}
		}
		e := n.install(line, st, resp.Data, false, false)
		n.m.dir.SendUnblock(line)
		if stale {
			c.done.onAccessDone(0, true)
			return
		}
		if e == nil {
			if !c.inTx {
				n.fail("non-transactional install failed", line)
			}
			n.abortTx(htm.CauseCapacity)
			c.done.onAccessDone(0, true)
			return
		}
		if !c.complete(e) {
			n.fail("the granted line lacks the access's permission", line)
		}
	case coherence.RespSpec:
		if !c.inTx {
			n.fail("SpecResp delivered to a non-transactional access", line)
		}
		if stale {
			n.stats.SpecDropStale++
			c.done.onAccessDone(0, true)
			return
		}
		e, out := n.consumeSpec(line, resp, c.vsbTries)
		switch out {
		case specAborted:
			c.done.onAccessDone(0, true)
		case specRetry:
			c.vsbTries++
			c.stage = stVSBRetry
			n.eng.Post(n.m.cfg.VSBRetryDelay, &c.ev)
		case specOK:
			if !c.complete(e) {
				n.fail("the forwarded line lacks the access's permission", line)
			}
		}
	case coherence.RespNack:
		if !c.inTx {
			// Only a transactional request is NACKed: a plain requester
			// wins every probe, and the directory force-NACKs only
			// transactional requests.
			n.fail("NACK delivered to a non-transactional access", line)
		}
		if stale {
			c.done.onAccessDone(0, true)
			return
		}
		if c.nackTries+1 >= n.m.cfg.NackRetryLimit {
			n.abortTx(htm.CauseStall)
			c.done.onAccessDone(0, true)
			return
		}
		n.stats.NackRetries++
		n.m.emitNackRetry(n.id, line)
		c.nackTries++
		c.stage = stNackRetry
		n.eng.Post(n.m.cfg.NackRetryDelay, &c.ev)
	}
}

// issueL2 charges the L2 traversal and sends the request to the
// directory over the interconnect.
func (c *access) issueL2() {
	c.stage = stIssue
	c.n.eng.Post(c.n.m.cfg.L2Latency, &c.ev)
}

// specOutcome is consumeSpec's verdict on a demand-path SpecResp.
type specOutcome uint8

const (
	specOK      specOutcome = iota // fiction installed; continue the access
	specRetry                      // re-issue the access after VSBRetryDelay
	specAborted                    // the consumer transaction died
)

// consumeSpec handles a demand-path SpecResp: VSB capacity, the policy's
// consumer-side rules, and installation of the fiction line (SM + Spec,
// added to the write set per Section V-A). On specOK it returns the
// installed entry.
func (n *Node) consumeSpec(line mem.Addr, resp coherence.Resp, vsbTries int) (*cache.Entry, specOutcome) {
	vsbFull := n.tx.VSB.Full()
	if !vsbFull && n.m.inj != nil && n.m.inj.VSBFull() {
		// Forced capacity pressure: treat the VSB as full for this
		// delivery, exercising the retry/abort path.
		n.m.countFault(n.id, "vsbfull")
		vsbFull = true
	}
	if vsbFull {
		if _, have := n.tx.VSB.Lookup(line); !have {
			n.stats.SpecDropVSB++
			if vsbTries+1 >= n.m.cfg.VSBRetryLimit {
				n.abortTx(htm.CauseCapacity)
				return nil, specAborted
			}
			return nil, specRetry
		}
	}
	out := n.policy.AcceptSpec(n.tx, resp.PiC)
	switch {
	case out.Cause != htm.CauseNone:
		n.stats.SpecDropReject++
		n.abortTx(out.Cause)
		return nil, specAborted
	case out.Retry:
		if vsbTries+1 >= n.m.cfg.VSBRetryLimit {
			n.abortTx(htm.CauseStall)
			return nil, specAborted
		}
		return nil, specRetry
	case out.Accept:
		if !n.tx.VSB.Add(line, resp.Data) {
			n.fail("VSB add failed after capacity check", line)
		}
		e := n.install(line, cache.Modified, resp.Data, true, true)
		if e == nil {
			n.abortTx(htm.CauseCapacity)
			return nil, specAborted
		}
		n.tx.Consumed = true
		n.stats.SpecRespsConsumed++
		n.m.emitConsume(n.id, line, resp.PiC)
		n.armValidationTimer()
		return e, specOK
	default:
		n.fail(n.policy.Name()+" received a SpecResp it cannot consume", line)
		return nil, specAborted
	}
}

// predicted reports whether the Rrestrict/W heuristic should refuse to
// forward this (read-set) line: the local core has a write for it in
// flight, so a forwarded copy would be invalidated almost immediately.
func (n *Node) predicted(line mem.Addr) bool {
	return n.hasPendingStore && n.pendingStore == line.Line()
}
