package machine

import (
	"fmt"

	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// HandleProbe processes a directory probe: normal coherence service when
// there is no conflict, otherwise the system's conflict-resolution
// policy decides between requester-wins, requester-speculates and
// requester-stalls (Section IV-A).
func (n *Node) HandleProbe(p coherence.Probe) {
	line := p.Line
	if wb, ok := n.wbPending[line]; ok {
		// Serve from the writeback buffer; the in-flight WB is withdrawn.
		wb.cancelled = true
		delete(n.wbPending, line)
		p.ReplyData(wb.data)
		return
	}
	e := n.l1.Peek(line)

	conflict := false
	inWS := false
	if n.tx.InTx() {
		inWS = e != nil && e.SM
		if p.Kind == coherence.FwdGetS {
			conflict = inWS // read-read is not a conflict
		} else {
			conflict = inWS || n.l1.Reads(line)
		}
	}
	if !conflict {
		n.replyNormal(p, e)
		return
	}

	n.tx.Conflicted = true
	n.stats.ProbeConflicts++
	dec, pic := htm.DecideAbort, coherence.PiCNone
	if p.Req.IsTx && p.Kind != coherence.InvProbe && n.m.heat.OverrideNack(line) {
		// Hot-line override, checked before the policy runs so its PiC
		// bookkeeping is never corrupted by a bypassed verdict: on a
		// line with heavy recent abort traffic, stall the requester
		// instead of killing the current owner.
		n.stats.CMHotNacks++
		dec = htm.DecideNack
	} else if p.Req.IsTx {
		pc := htm.ProbeContext{
			Line:           line,
			Kind:           p.Kind,
			Req:            p.Req,
			InWriteSet:     inWS,
			PredictedWrite: !inWS && n.predicted(line),
			Forwardable:    p.Kind != coherence.InvProbe && e != nil,
		}
		dec, pic = n.policy.DecideProbe(n.tx, pc)
	}
	if dec == htm.DecideSpec && !(p.Kind != coherence.InvProbe && e != nil) {
		n.fail("policy forwarded an unforwardable probe", line)
	}
	n.m.emitConflict(n.id, p.Req.ID, line, p.Kind, dec)

	switch dec {
	case htm.DecideSpec:
		n.stats.DecSpec++
		n.tx.Forwarded = true
		n.tx.ForwardedTo++
		n.stats.SpecRespsSent++
		n.m.emitForward(n.id, p.Req.ID, line, pic)
		var data mem.Line
		if e != nil {
			data = e.Data
		}
		p.ReplySpec(data, pic)
	case htm.DecideNack:
		n.stats.DecNack++
		p.ReplyNack()
	case htm.DecideAbort:
		n.stats.DecAbort++
		cause := htm.CauseConflict
		if !p.Req.IsTx && line == n.m.lockLine {
			cause = htm.CauseLock
		}
		if cause == htm.CauseConflict {
			n.m.heat.NoteLineAbort(line)
		}
		n.abortTx(cause)
		n.replyNormal(p, n.l1.Peek(line)) // SM lines are gone now
	}
}

// replyNormal services a probe with plain MESI behavior.
func (n *Node) replyNormal(p coherence.Probe, e *cache.Entry) {
	if e == nil {
		// Silently dropped: a forward is served from memory, and an Inv
		// has nothing to invalidate.
		p.ReplyNoData()
		return
	}
	if e.SM {
		n.fail("normal reply would leak speculative data", p.Line)
	}
	switch p.Kind {
	case coherence.FwdGetS:
		data := e.Data
		e.State = cache.Shared
		e.Dirty = false // the transfer refreshes the memory image
		p.ReplyData(data)
	case coherence.FwdGetX:
		data := e.Data
		n.l1.Invalidate(p.Line)
		p.ReplyData(data)
	case coherence.InvProbe:
		n.l1.Invalidate(p.Line)
		p.ReplyData(mem.Line{})
	}
}

// abortTx kills the running transaction: stats, gang invalidation of the
// write set, and — if the thread was blocked in commit — its wakeup. The
// thread otherwise discovers the abort at its next operation. Every
// caller holds a live transaction: it checked InTx, or its response
// carries the attempt's epoch, which any status change bumps
// (MarkAborted panics otherwise).
func (n *Node) abortTx(cause htm.AbortCause) {
	wasCommitting := n.tx.Status == htm.Committing
	n.stats.Aborts++
	n.stats.ByCause[cause]++
	if n.tx.Conflicted {
		n.stats.ConflictedAborted++
	}
	if n.tx.Forwarded {
		n.stats.ForwarderAborted++
	}
	if n.tx.Consumed {
		n.stats.ConsumerAborted++
	}
	n.tx.MarkAborted(cause)
	n.l1.GangInvalidateSM()
	n.stopValidationTimer()
	n.m.emitAbort(n.id, cause)
	if wasCommitting {
		n.thread.reply(n.m.cfg.AbortLatency, opReply{aborted: true})
	}
}

// beginOp is the BeginTx state machine: begin latency, the non-
// transactional lock read (with randomized backoff while the lock is
// held) and the eager transactional lock subscription.
type beginOp struct {
	ev      sim.Event
	n       *Node
	attempt int
	power   bool
	phase   uint8
}

const (
	bpLockFree  uint8 = iota // outer (non-transactional) lock read completed
	bpSubscribe              // transactional lock subscription completed
)

// Run fires after the begin latency or a backoff wait: (re-)read the
// fallback lock.
func (b *beginOp) Run() {
	b.phase = bpLockFree
	b.n.Load(b.n.m.lockAddr, false, b)
}

func (b *beginOp) onAccessDone(v uint64, aborted bool) {
	n := b.n
	switch b.phase {
	case bpLockFree:
		if v != 0 {
			n.eng.Post(n.m.cfg.BackoffBase+n.rng.Uint64n(n.m.cfg.BackoffBase), &b.ev)
			return
		}
		n.tx.Begin(b.attempt, n.policy.Traits().NaiveBudget)
		n.tx.Power = b.power
		n.tx.TS = n.m.nextTS()
		b.phase = bpSubscribe
		n.Load(n.m.lockAddr, true, b)
	case bpSubscribe:
		if aborted {
			n.thread.finish(opReply{aborted: true})
			return
		}
		if v != 0 {
			n.abortTx(htm.CauseLock)
			n.tx.Finish()
			n.thread.finish(opReply{aborted: true})
			return
		}
		n.validatedThisTx = 0
		n.m.emitBegin(n.id, b.attempt, b.power)
		n.thread.finish(opReply{})
	default:
		n.fail(fmt.Sprintf("bad beginOp phase %d", b.phase), n.m.lockLine)
	}
}

// BeginTx starts a speculative attempt: it waits for the fallback lock
// to be free, begins, and eagerly subscribes to the lock (reads it into
// the read signature). An aborted reply means the begin raced with a
// lock acquisition and should simply be retried.
func (n *Node) BeginTx(attempt int, power bool) {
	b := &n.beg
	b.attempt = attempt
	b.power = power
	n.eng.Post(n.m.cfg.BeginLatency, &b.ev)
}

// Commit attempts to commit: the VSB must drain first (validation of all
// speculatively received lines), then the write set atomically becomes
// architectural. A transaction that dies while Committing gets its
// thread's aborted reply from abortTx. The thread issues Commit in the
// event that completed its last op, so the transaction is alive.
func (n *Node) Commit() {
	if !n.tx.InTx() {
		panic(fmt.Sprintf("machine: cycle %d core %d: commit of a dead transaction (status %v)",
			n.eng.Now(), n.id, n.tx.Status))
	}
	if !n.tx.VSB.Empty() {
		n.tx.Status = htm.Committing
		n.kickValidation()
		return
	}
	n.finalizeCommit()
}

func (n *Node) finalizeCommit() {
	n.m.emitCommit(n.id, n.validatedThisTx)
	n.l1.CommitSM(nil)
	n.stats.Commits++
	if n.tx.Conflicted {
		n.stats.ConflictedCommitted++
	}
	if n.tx.Forwarded {
		n.stats.ForwarderCommitted++
	}
	if n.tx.Consumed {
		n.stats.ConsumerCommitted++
	}
	if n.tx.Power {
		n.m.releasePower(n.id)
	}
	n.tx.Finish()
	n.stopValidationTimer()
	n.thread.reply(n.m.cfg.CommitLatency, opReply{ok: true})
}

// FinishAbort acknowledges a delivered abort: the thread has unwound and
// the state returns to Idle.
func (n *Node) FinishAbort() {
	if n.tx.Status == htm.Aborted {
		n.tx.Finish()
	}
}

// EnterFallback marks the core as executing the software fallback path
// and opens its fallback-occupancy clock.
func (n *Node) EnterFallback() {
	n.tx.Status = htm.Fallback
	n.stats.Fallbacks++
	n.m.emitFallback(n.id)
	n.openFallbackClock()
}

// ExitFallback returns the core to Idle and closes its
// fallback-occupancy clock.
func (n *Node) ExitFallback() {
	if n.tx.Status != htm.Fallback {
		panic(fmt.Sprintf("machine: cycle %d core %d: ExitFallback outside fallback (status %v)",
			n.eng.Now(), n.id, n.tx.Status))
	}
	n.tx.Status = htm.Idle
	if n.fbTiming {
		n.stats.FallbackBodyCycles += n.eng.Now() - n.fbStart
		n.fbTiming = false
	}
}

// openFallbackClock starts the fallback-occupancy clock unless this
// core's fallback section already started it.
func (n *Node) openFallbackClock() {
	if !n.fbTiming {
		n.fbTiming = true
		n.fbStart = n.eng.Now()
	}
}

// ---------- VSB validation controller (Section IV-B) ----------

// valTimerOp is the periodic validation timer's payload; its event is
// pending exactly while the timer is armed.
type valTimerOp struct {
	ev sim.Event
	n  *Node
}

// Run fires the timer: issue the validation.
func (v *valTimerOp) Run() { v.n.issueValidation() }

// valOp is one in-flight validation request: the network hop carrying
// the re-issued GetX, and the response handler. valInFlight guarantees a
// single instance suffices.
type valOp struct {
	ev    sim.Event
	n     *Node
	ent   htm.VSBEntry
	epoch uint64
	// ri is sampled at issue time, before the hop to the directory, like
	// a demand access's.
	ri coherence.ReqInfo
}

// Run delivers the validation request at the directory.
func (v *valOp) Run() { v.n.m.dir.GetX(v.ent.Line, v.ri, v) }

// HandleResp receives the validation response.
func (v *valOp) HandleResp(resp coherence.Resp) {
	v.n.onValidationResp(v.ent, v.epoch, resp)
}

func (n *Node) stopValidationTimer() { n.eng.Cancel(&n.valTick.ev) }

// armValidationTimer schedules the next periodic validation if the VSB
// holds unvalidated data.
func (n *Node) armValidationTimer() {
	if n.valTick.ev.Pending() || n.valInFlight || !n.tx.InTx() || n.tx.VSB.Empty() {
		return
	}
	interval := n.policy.Traits().ValidationInterval
	if interval == 0 || n.tx.Status == htm.Committing {
		interval = 1 // back-to-back validation
	}
	n.eng.Post(interval, &n.valTick.ev)
}

// kickValidation validates immediately (commit is waiting).
func (n *Node) kickValidation() {
	n.stopValidationTimer()
	if !n.valInFlight {
		n.issueValidation()
	}
}

// issueValidation sends the validation of the next VSB entry. Its
// callers hold a live transaction with unvalidated entries and no
// validation in flight: the timer is armed only then and stopped at
// abort and commit, and a commit kicks it only when none is in flight.
func (n *Node) issueValidation() {
	ent, ok := n.tx.VSB.NextToValidate()
	if !ok || n.valInFlight || !n.tx.InTx() {
		// Without a valid entry there is no line to name.
		panic(fmt.Sprintf("machine: cycle %d core %d: validation issued with %d VSB entries valid (entry found %v), one in flight %v, status %v",
			n.eng.Now(), n.id, n.tx.VSB.Len(), ok, n.valInFlight, n.tx.Status))
	}
	n.val.ent = ent
	n.val.epoch = n.tx.Epoch
	n.val.ri = n.reqInfo(true, true)
	n.valInFlight = true
	n.stats.Validations++
	n.m.net.PostControl(&n.val.ev)
}

// validationCheck is the policy's ValidationCheck for line. An abort
// without a cause (a policy without a VSB validating) fails the run, and
// so does a pending verdict on a data response: real permissions settle
// the line one way or the other.
func (n *Node) validationCheck(line mem.Addr, isSpec bool, pic coherence.PiC, match bool) (htm.ValidationOutcome, htm.AbortCause) {
	out, cause := n.policy.ValidationCheck(n.tx, isSpec, pic, match)
	switch {
	case out == htm.ValidationAbort && cause == htm.CauseNone:
		n.fail(n.policy.Name()+" validated a line it cannot hold", line)
	case out == htm.ValidationPending && !isSpec:
		n.fail(n.policy.Name()+" left a line pending that real permissions granted", line)
	}
	return out, cause
}

// validationMatch reports whether the response carries the value the
// transaction consumed. A valfail fault turns a match into a mismatch:
// the consumed line is treated as stale, driving the policy's mismatch
// path (an abort, never an unsound commit).
func (n *Node) validationMatch(ent htm.VSBEntry, resp coherence.Resp) bool {
	match := resp.Data == ent.Data
	if match && n.m.inj != nil && n.m.inj.ValFail() {
		n.m.countFault(n.id, "valfail")
		match = false
	}
	return match
}

func (n *Node) onValidationResp(ent htm.VSBEntry, epoch uint64, resp coherence.Resp) {
	n.valInFlight = false
	if n.tx.Epoch != epoch {
		n.onStaleValidationResp(ent, resp)
		return
	}
	switch resp.Kind {
	case coherence.RespData:
		n.m.dir.SendUnblock(ent.Line)
		out, cause := n.validationCheck(ent.Line, false, resp.PiC, n.validationMatch(ent, resp))
		if out == htm.ValidationAbort {
			n.abortTx(cause)
			return
		}
		n.tx.VSB.Remove(ent.Line)
		n.stats.ValidationsOK++
		n.validatedThisTx++
		n.m.emitValidate(n.id, ent.Line, true)
		if e := n.l1.Peek(ent.Line); e != nil {
			e.Spec = false // the fiction is now real ownership
		}
		if n.tx.VSB.Empty() {
			n.tx.Cons = false
			if n.tx.Status == htm.Committing {
				n.finalizeCommit()
				return
			}
		}
		n.armValidationTimer()
	case coherence.RespSpec:
		out, cause := n.validationCheck(ent.Line, true, resp.PiC, n.validationMatch(ent, resp))
		if out == htm.ValidationAbort {
			n.abortTx(cause)
			return
		}
		n.m.emitValidate(n.id, ent.Line, false)
		n.armValidationTimer()
	case coherence.RespNack:
		n.armValidationTimer()
	}
}

// onStaleValidationResp handles the response to a validation an
// aborted attempt issued. If the live transaction is already
// committing, its Commit found that request in flight and issued none
// of its own, so validation restarts here; otherwise nothing would ever
// drain its VSB.
func (n *Node) onStaleValidationResp(ent htm.VSBEntry, resp coherence.Resp) {
	if resp.Kind == coherence.RespData {
		n.m.dir.SendUnblock(ent.Line)
		// Ownership granted to a dead transaction: adopt the line as a
		// plain clean copy so the directory's view stays consistent.
		if n.l1.Peek(ent.Line) == nil {
			n.install(ent.Line, cache.Modified, resp.Data, false, false)
		}
	}
	if n.tx.Status == htm.Committing {
		n.kickValidation()
	}
}
