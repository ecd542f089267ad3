package machine

import (
	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// Completion interfaces for the node's asynchronous operations. The
// runner's thread contexts and the begin state machine implement them;
// using interfaces instead of func values keeps the request path free of
// per-operation closure allocations (interface values over pooled
// structs don't allocate).
type (
	loadDone  interface{ onLoadDone(v uint64, aborted bool) }
	storeDone interface{ onStoreDone(aborted bool) }
	casDone   interface {
		onCASDone(prev uint64, swapped bool)
	}
	beginDone  interface{ onBeginDone(ok bool) }
	commitDone interface{ onCommitDone(committed bool) }
)

// pendingWB is a writeback in flight; a probe served from it cancels the
// in-flight message. It is its own delivery event payload.
type pendingWB struct {
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
	n.freeWB(wb)
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
	wbFree []*pendingWB

	// Reusable event payloads. The thread rendezvous guarantees at most
	// one demand access, one begin and one commit reply in flight per
	// core, and valInFlight/valTimer guard the validation pair, so a
	// single embedded instance of each replaces the per-stage closures
	// the hot path used to allocate.
	acc     access
	beg     beginOp
	crep    commitReply
	val     valOp
	valTick valTimerOp

	// pendingStore is the line of the in-flight demand GetX, if any — the
	// Rrestrict/W heuristic's "currently in-flight write from the local
	// core" signal (Section VI-D).
	pendingStore    mem.Addr
	hasPendingStore bool

	valTimer    *sim.Event
	valInFlight bool
	commitDone  commitDone

	// validatedThisTx counts VSB entries validated by the current
	// transaction (reported through the tracer at commit).
	validatedThisTx int

	// Fallback-occupancy clock: fbStart is when this core's current
	// fallback section opened (the STM body start, or the lock-path
	// EnterFallback); the close at ExitFallback adds the interval to
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
	n.acc.n = n
	n.beg.n = n
	n.val.n = n
	n.valTick.n = n
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

// install puts a line in L1, handling the victim. It returns false when
// the set is full of write-set lines (transactional overflow).
func (n *Node) install(line mem.Addr, st cache.State, data mem.Line, sm, spec bool) bool {
	v, evicted, ok := n.l1.Insert(line, st, data)
	if !ok {
		return false
	}
	e := n.l1.Peek(line)
	e.SM = sm
	e.Spec = spec
	e.Dirty = false
	if evicted {
		n.handleVictim(v)
	}
	return true
}

func (n *Node) handleVictim(v *cache.Victim) {
	if v.SM {
		panic("machine: replacement evicted an SM line")
	}
	if v.State == cache.Modified && v.Dirty {
		wb := n.allocWB()
		wb.tag = v.Tag
		wb.data = v.Data
		n.wbPending[v.Tag] = wb
		// While the message is in flight, a probe served from wbPending or
		// a reinstall can cancel it; the delivery observes the flag.
		n.m.net.SendDataMsg(wb)
	}
	// Clean lines (E, M-clean, S) drop silently; the directory tolerates
	// it because the memory image holds their committed value.
}

// allocWB takes a writeback-buffer entry from the free list (or the
// heap on first use), reset for a fresh writeback.
func (n *Node) allocWB() *pendingWB {
	if l := len(n.wbFree); l > 0 {
		wb := n.wbFree[l-1]
		n.wbFree[l-1] = nil
		n.wbFree = n.wbFree[:l-1]
		wb.cancelled = false
		return wb
	}
	return &pendingWB{n: n}
}

// freeWB recycles an entry whose delivery message has run.
func (n *Node) freeWB(wb *pendingWB) {
	n.wbFree = append(n.wbFree, wb)
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
	if !n.install(line, cache.Modified, wb.data, false, false) {
		return nil
	}
	e := n.l1.Peek(line)
	e.Dirty = true
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

// access is the node's demand-access (load/store/CAS) flow. The thread
// rendezvous guarantees one in flight per core, so a single embedded
// instance carries the whole chain with zero allocations.
type access struct {
	n         *Node
	kind      uint8
	stage     uint8
	a         mem.Addr
	v         uint64 // store value
	old, new  uint64 // CAS operands
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
	ld     loadDone
	sd     storeDone
	cd     casDone
}

// Run advances the access to its next stage.
func (c *access) Run() {
	n := c.n
	switch c.stage {
	case stStart, stNackRetry, stVSBRetry:
		switch c.kind {
		case accLoad:
			n.load1(c)
		case accStore:
			n.store1(c)
		case accCAS:
			n.cas1(c)
		}
	case stIssue:
		c.stage = stReq
		if c.kind == accCAS {
			c.ri = n.reqInfo(false, false)
		} else {
			c.ri = n.reqInfo(c.inTx, false)
		}
		n.m.net.SendControlMsg(c)
	case stReq:
		switch c.kind {
		case accLoad:
			n.m.dir.GetS(c.a.Line(), c.ri, c)
		case accStore, accCAS:
			n.m.dir.GetX(c.a.Line(), c.ri, c)
		}
	case stWBData:
		// The writeback landed at the directory; ack back to the core.
		c.stage = stWBAck
		n.m.dir.WriteBackData(c.a.Line(), c.wbData)
		n.m.net.SendControlMsg(c)
	case stWBAck:
		if cur := n.l1.Peek(c.a.Line()); cur != nil {
			cur.Dirty = false
		}
		n.store1(c)
	default:
		panic("machine: bad access stage")
	}
}

// HandleResp receives the directory's response.
func (c *access) HandleResp(resp coherence.Resp) {
	n := c.n
	switch c.kind {
	case accLoad:
		n.onLoadResp(c, resp)
	case accStore:
		if c.inTx {
			n.hasPendingStore = false
		}
		n.onStoreResp(c, resp)
	case accCAS:
		n.onCASResp(c, resp)
	}
}

// issueL2 charges the L2 traversal and sends the request to the
// directory over the interconnect.
func (c *access) issueL2() {
	c.stage = stIssue
	c.n.eng.ScheduleRunner(c.n.m.cfg.L2Latency, c)
}

// ---------- Load ----------

// Load performs a (transactional or plain) word load; done receives the
// value, or aborted=true if the surrounding transaction died.
func (n *Node) Load(a mem.Addr, inTx bool, done loadDone) {
	c := &n.acc
	c.kind = accLoad
	c.stage = stStart
	c.a = a
	c.inTx = inTx
	c.nackTries = 0
	c.vsbTries = 0
	c.ld = done
	n.eng.ScheduleRunner(n.m.cfg.L1Latency, c)
}

func (n *Node) load1(c *access) {
	a, inTx := c.a, c.inTx
	if inTx && !n.tx.InTx() {
		c.ld.onLoadDone(0, true)
		return
	}
	if inTx && n.m.inj != nil && n.m.inj.SpuriousAbort() {
		// Best-effort HTM: a transaction may abort at any access boundary
		// for no architectural reason.
		n.m.countFault(n.id, "spurious")
		n.abortTx(htm.CauseSpurious)
		c.ld.onLoadDone(0, true)
		return
	}
	line := a.Line()
	e := n.l1.Lookup(line)
	if e == nil {
		if re := n.reinstall(line); re != nil {
			e = re
		}
	}
	if e != nil {
		if inTx {
			n.tx.AddRead(line)
		}
		c.ld.onLoadDone(e.Data[a.WordIndex()], false)
		return
	}
	c.epoch = n.tx.Epoch
	c.issueL2()
}

func (n *Node) onLoadResp(c *access, resp coherence.Resp) {
	a, inTx := c.a, c.inTx
	done := c.ld
	line := a.Line()
	stale := inTx && n.tx.Epoch != c.epoch
	switch resp.Kind {
	case coherence.RespData:
		st := cache.Shared
		if resp.Excl {
			st = cache.Exclusive
		}
		ok := n.install(line, st, resp.Data, false, false)
		n.m.dir.SendUnblock(line)
		if stale {
			done.onLoadDone(0, true)
			return
		}
		if !ok {
			if inTx {
				n.abortTx(htm.CauseCapacity)
				done.onLoadDone(0, true)
				return
			}
			panic("machine: non-transactional install failed")
		}
		if inTx {
			n.tx.AddRead(line)
		}
		done.onLoadDone(resp.Data[a.WordIndex()], false)
	case coherence.RespSpec:
		if !inTx {
			panic("machine: SpecResp delivered to a non-transactional load")
		}
		if stale {
			n.stats.SpecDropStale++
			done.onLoadDone(0, true)
			return
		}
		switch n.consumeSpec(line, resp, c.vsbTries) {
		case specAborted:
			done.onLoadDone(0, true)
		case specRetry:
			c.vsbTries++
			c.stage = stVSBRetry
			n.eng.ScheduleRunner(n.m.cfg.VSBRetryDelay, c)
		case specOK:
			n.tx.AddRead(line)
			e := n.l1.Peek(line)
			done.onLoadDone(e.Data[a.WordIndex()], false)
		}
	case coherence.RespNack:
		if stale {
			done.onLoadDone(0, true)
			return
		}
		if inTx && c.nackTries+1 >= n.m.cfg.NackRetryLimit {
			n.abortTx(htm.CauseStall)
			done.onLoadDone(0, true)
			return
		}
		n.stats.NackRetries++
		n.m.emitNackRetry(n.id, line)
		c.nackTries++
		c.stage = stNackRetry
		n.eng.ScheduleRunner(n.m.cfg.NackRetryDelay, c)
	}
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
// added to the write set per Section V-A).
func (n *Node) consumeSpec(line mem.Addr, resp coherence.Resp, vsbTries int) specOutcome {
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
				return specAborted
			}
			return specRetry
		}
	}
	out := n.policy.AcceptSpec(n.tx, resp.PiC)
	switch {
	case out.Cause != htm.CauseNone:
		n.stats.SpecDropReject++
		n.abortTx(out.Cause)
		return specAborted
	case out.Retry:
		if vsbTries+1 >= n.m.cfg.VSBRetryLimit {
			n.abortTx(htm.CauseStall)
			return specAborted
		}
		return specRetry
	case out.Accept:
		if !n.tx.VSB.Add(line, resp.Data) {
			panic("machine: VSB add failed after capacity check")
		}
		if !n.install(line, cache.Modified, resp.Data, true, true) {
			n.abortTx(htm.CauseCapacity)
			return specAborted
		}
		n.tx.AddWrite(line)
		n.tx.Consumed = true
		n.stats.SpecRespsConsumed++
		n.m.emitConsume(n.id, line, resp.PiC)
		n.armValidationTimer()
		return specOK
	default:
		panic("machine: empty SpecOutcome")
	}
}

// ---------- Store ----------

// Store performs a (transactional or plain) word store.
func (n *Node) Store(a mem.Addr, v uint64, inTx bool, done storeDone) {
	c := &n.acc
	c.kind = accStore
	c.stage = stStart
	c.a = a
	c.v = v
	c.inTx = inTx
	c.nackTries = 0
	c.vsbTries = 0
	c.sd = done
	n.eng.ScheduleRunner(n.m.cfg.L1Latency, c)
}

func (n *Node) store1(c *access) {
	a, v, inTx := c.a, c.v, c.inTx
	if inTx && !n.tx.InTx() {
		c.sd.onStoreDone(true)
		return
	}
	if inTx && n.m.inj != nil && n.m.inj.SpuriousAbort() {
		n.m.countFault(n.id, "spurious")
		n.abortTx(htm.CauseSpurious)
		c.sd.onStoreDone(true)
		return
	}
	line := a.Line()
	e := n.l1.Lookup(line)
	if e == nil {
		if re := n.reinstall(line); re != nil {
			e = re
		}
	}
	if e != nil {
		switch {
		case e.SM:
			// Already in the write set (possibly a spec-received fiction).
			e.Data[a.WordIndex()] = v
			c.sd.onStoreDone(false)
			return
		case e.State == cache.Modified || e.State == cache.Exclusive:
			if inTx {
				if e.Dirty {
					// Lazy versioning: the committed value must reach the
					// LLC before the first speculative write, so a later
					// silent gang-invalidation cannot lose it. The store
					// stalls until the writeback lands and is acked.
					c.wbData = e.Data
					c.stage = stWBData
					n.m.net.SendDataMsg(c)
					return
				}
				e.SM = true
				n.tx.AddWrite(line)
				e.Data[a.WordIndex()] = v
			} else {
				e.State = cache.Modified
				e.Dirty = true
				e.Data[a.WordIndex()] = v
			}
			c.sd.onStoreDone(false)
			return
		}
		// Shared: fall through to the upgrade request.
	}
	c.epoch = n.tx.Epoch
	if inTx {
		n.pendingStore = line
		n.hasPendingStore = true
	}
	c.issueL2()
}

func (n *Node) onStoreResp(c *access, resp coherence.Resp) {
	a, v, inTx := c.a, c.v, c.inTx
	done := c.sd
	line := a.Line()
	stale := inTx && n.tx.Epoch != c.epoch
	switch resp.Kind {
	case coherence.RespData:
		ok := n.install(line, cache.Modified, resp.Data, false, false)
		n.m.dir.SendUnblock(line)
		if stale {
			done.onStoreDone(true)
			return
		}
		if !ok {
			if inTx {
				n.abortTx(htm.CauseCapacity)
				done.onStoreDone(true)
				return
			}
			panic("machine: non-transactional install failed")
		}
		e := n.l1.Peek(line)
		if inTx {
			e.SM = true
			n.tx.AddWrite(line)
		} else {
			e.Dirty = true
		}
		e.Data[a.WordIndex()] = v
		done.onStoreDone(false)
	case coherence.RespSpec:
		if !inTx {
			panic("machine: SpecResp delivered to a non-transactional store")
		}
		if stale {
			n.stats.SpecDropStale++
			done.onStoreDone(true)
			return
		}
		switch n.consumeSpec(line, resp, c.vsbTries) {
		case specAborted:
			done.onStoreDone(true)
		case specRetry:
			c.vsbTries++
			c.stage = stVSBRetry
			n.eng.ScheduleRunner(n.m.cfg.VSBRetryDelay, c)
		case specOK:
			e := n.l1.Peek(line)
			e.Data[a.WordIndex()] = v
			done.onStoreDone(false)
		}
	case coherence.RespNack:
		if stale {
			done.onStoreDone(true)
			return
		}
		if inTx && c.nackTries+1 >= n.m.cfg.NackRetryLimit {
			n.abortTx(htm.CauseStall)
			done.onStoreDone(true)
			return
		}
		n.stats.NackRetries++
		n.m.emitNackRetry(n.id, line)
		c.nackTries++
		c.stage = stNackRetry
		n.eng.ScheduleRunner(n.m.cfg.NackRetryDelay, c)
	}
}

// predicted reports whether the Rrestrict/W heuristic should refuse to
// forward this (read-set) line: the local core has a write for it in
// flight, so a forwarded copy would be invalidated almost immediately.
func (n *Node) predicted(line mem.Addr) bool {
	return n.hasPendingStore && n.pendingStore == line.Line()
}

// ---------- CAS ----------

// CAS performs a non-transactional compare-and-swap (used by the
// fallback lock). done receives the previous value and whether the swap
// happened.
func (n *Node) CAS(a mem.Addr, old, new uint64, done casDone) {
	c := &n.acc
	c.kind = accCAS
	c.stage = stStart
	c.a = a
	c.old = old
	c.new = new
	c.inTx = false
	c.cd = done
	n.eng.ScheduleRunner(n.m.cfg.L1Latency, c)
}

func (n *Node) cas1(c *access) {
	a, old, new := c.a, c.old, c.new
	line := a.Line()
	e := n.l1.Lookup(line)
	if e == nil {
		if re := n.reinstall(line); re != nil {
			e = re
		}
	}
	if e != nil && (e.State == cache.Modified || e.State == cache.Exclusive) && !e.SM {
		prev := e.Data[a.WordIndex()]
		if prev == old {
			e.State = cache.Modified
			e.Dirty = true
			e.Data[a.WordIndex()] = new
			c.cd.onCASDone(prev, true)
		} else {
			c.cd.onCASDone(prev, false)
		}
		return
	}
	c.issueL2()
}

func (n *Node) onCASResp(c *access, resp coherence.Resp) {
	a, old, new := c.a, c.old, c.new
	done := c.cd
	line := a.Line()
	switch resp.Kind {
	case coherence.RespData:
		if !n.install(line, cache.Modified, resp.Data, false, false) {
			panic("machine: CAS install failed")
		}
		n.m.dir.SendUnblock(line)
		e := n.l1.Peek(line)
		prev := e.Data[a.WordIndex()]
		if prev == old {
			e.Dirty = true
			e.Data[a.WordIndex()] = new
			done.onCASDone(prev, true)
		} else {
			done.onCASDone(prev, false)
		}
	case coherence.RespSpec:
		panic("machine: SpecResp delivered to CAS")
	case coherence.RespNack:
		c.stage = stNackRetry
		n.eng.ScheduleRunner(n.m.cfg.NackRetryDelay, c)
	}
}
