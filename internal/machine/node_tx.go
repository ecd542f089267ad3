package machine

import (
	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
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
		inWS = n.tx.Writes(line)
		if p.Kind == coherence.FwdGetS {
			conflict = inWS // read-read is not a conflict
		} else {
			conflict = inWS || n.tx.Reads(line)
		}
	}
	if !conflict {
		n.replyNormal(p, e)
		return
	}

	n.tx.Conflicted = true
	n.stats.ProbeConflicts++
	dec, pic := htm.DecideAbort, coherence.PiCNone
	if p.Req.IsTx && p.Kind != coherence.InvProbe &&
		n.m.cm != nil && n.m.cm.OverrideNack(line) {
		// Adaptive hot-line override, checked before the policy runs so
		// its PiC bookkeeping is never corrupted by a bypassed verdict:
		// on a line with heavy recent abort traffic, stall the requester
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
		panic("machine: policy forwarded an unforwardable probe")
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
		if n.m.cm != nil && cause == htm.CauseConflict {
			n.m.cm.NoteLineAbort(line)
		}
		n.abortTx(cause)
		n.replyNormal(p, n.l1.Peek(line)) // SM lines are gone now
	}
}

// replyNormal services a probe with plain MESI behavior.
func (n *Node) replyNormal(p coherence.Probe, e *cache.Entry) {
	if e == nil {
		if p.Kind == coherence.InvProbe {
			p.ReplyData(mem.Line{}) // nothing to invalidate
		} else {
			p.ReplyNoData() // silently dropped; directory serves memory
		}
		return
	}
	if e.SM {
		panic("machine: normal reply would leak speculative data")
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

// commitReply delivers a Commit/abort outcome to the waiting thread
// after the commit/abort latency.
type commitReply struct {
	done      commitDone
	committed bool
}

// Run wakes the thread.
func (c *commitReply) Run() {
	d := c.done
	c.done = nil
	d.onCommitDone(c.committed)
}

// scheduleCommitReply arms the node's reply event, which wakes the
// waiting thread.
func (n *Node) scheduleCommitReply(delay uint64, done commitDone, committed bool) {
	n.crep.done = done
	n.crep.committed = committed
	n.eng.ScheduleRunner(delay, &n.crep)
}

// abortTx kills the running transaction: stats, gang invalidation of the
// write set, and — if the thread was blocked in commit — its wakeup. The
// thread otherwise discovers the abort at its next operation.
func (n *Node) abortTx(cause htm.AbortCause) {
	if !n.tx.InTx() {
		return
	}
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
	if wasCommitting && n.commitDone != nil {
		done := n.commitDone
		n.commitDone = nil
		n.scheduleCommitReply(n.m.cfg.AbortLatency, done, false)
	}
}

// beginOp is the BeginTx state machine: begin latency, the non-
// transactional lock read (with randomized backoff while the lock is
// held) and the eager transactional lock subscription.
type beginOp struct {
	n       *Node
	attempt int
	power   bool
	phase   uint8
	done    beginDone
}

const (
	bpLockFree  uint8 = iota // outer (non-transactional) lock read completed
	bpSubscribe              // transactional lock subscription completed
)

// Run fires after the begin latency or a backoff wait: (re-)read the
// fallback lock.
func (b *beginOp) Run() { b.n.begin1(b) }

func (b *beginOp) onLoadDone(v uint64, aborted bool) {
	n := b.n
	switch b.phase {
	case bpLockFree:
		if v != 0 {
			n.eng.ScheduleRunner(n.m.cfg.BackoffBase+n.rng.Uint64n(n.m.cfg.BackoffBase), b)
			return
		}
		n.tx.Begin(b.attempt, n.policy.Traits().NaiveBudget)
		n.tx.Power = b.power
		n.tx.TS = n.m.nextTS()
		b.phase = bpSubscribe
		n.Load(n.m.lockAddr, true, b)
	case bpSubscribe:
		if aborted {
			b.done.onBeginDone(false)
			return
		}
		if v != 0 {
			n.abortTx(htm.CauseLock)
			n.tx.Finish()
			b.done.onBeginDone(false)
			return
		}
		n.validatedThisTx = 0
		n.m.emitBegin(n.id, b.attempt, b.power)
		b.done.onBeginDone(true)
	default:
		panic("machine: bad beginOp phase")
	}
}

// BeginTx starts a speculative attempt: it waits for the fallback lock
// to be free, begins, and eagerly subscribes to the lock (reads it into
// the read signature). done(false) means the begin raced with a lock
// acquisition and should simply be retried.
func (n *Node) BeginTx(attempt int, power bool, done beginDone) {
	b := &n.beg
	b.attempt = attempt
	b.power = power
	b.done = done
	n.eng.ScheduleRunner(n.m.cfg.BeginLatency, b)
}

func (n *Node) begin1(b *beginOp) {
	b.phase = bpLockFree
	n.Load(n.m.lockAddr, false, b)
}

// Commit attempts to commit: the VSB must drain first (validation of all
// speculatively received lines), then the write set atomically becomes
// architectural.
func (n *Node) Commit(done commitDone) {
	if !n.tx.InTx() {
		n.scheduleCommitReply(n.m.cfg.AbortLatency, done, false)
		return
	}
	if !n.tx.VSB.Empty() {
		n.tx.Status = htm.Committing
		n.commitDone = done
		n.kickValidation()
		return
	}
	n.finalizeCommit(done)
}

func (n *Node) finalizeCommit(done commitDone) {
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
	n.scheduleCommitReply(n.m.cfg.CommitLatency, done, true)
}

// FinishAbort acknowledges a delivered abort: the thread has unwound and
// the state returns to Idle. Returns the recorded cause.
func (n *Node) FinishAbort() htm.AbortCause {
	cause := n.tx.Cause
	if n.tx.Status == htm.Aborted {
		n.tx.Finish()
	}
	return cause
}

// EnterFallback marks the core as executing the software fallback path.
func (n *Node) EnterFallback() {
	n.tx.Status = htm.Fallback
	n.stats.Fallbacks++
	n.m.emitFallback(n.id)
}

// ExitFallback returns the core to Idle.
func (n *Node) ExitFallback() {
	if n.tx.Status != htm.Fallback {
		panic("machine: ExitFallback outside fallback")
	}
	n.tx.Status = htm.Idle
}

// ---------- VSB validation controller (Section IV-B) ----------

// valTimerOp is the periodic validation timer's payload.
type valTimerOp struct{ n *Node }

// Run fires the timer: clear the handle and issue the validation.
func (v *valTimerOp) Run() {
	v.n.valTimer = nil
	v.n.issueValidation()
}

// valOp is one in-flight validation request: the network hop carrying
// the re-issued GetX, and the response handler. valInFlight guarantees a
// single instance suffices.
type valOp struct {
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

func (n *Node) stopValidationTimer() {
	if n.valTimer != nil {
		n.eng.Cancel(n.valTimer)
		n.valTimer = nil
	}
}

// armValidationTimer schedules the next periodic validation if the VSB
// holds unvalidated data.
func (n *Node) armValidationTimer() {
	if n.valTimer != nil || n.valInFlight || !n.tx.InTx() || n.tx.VSB.Empty() {
		return
	}
	interval := n.policy.Traits().ValidationInterval
	if interval == 0 || n.tx.Status == htm.Committing {
		interval = 1 // back-to-back validation
	}
	n.valTimer = n.eng.ScheduleRunner(interval, &n.valTick)
}

// kickValidation validates immediately (commit is waiting).
func (n *Node) kickValidation() {
	n.stopValidationTimer()
	if !n.valInFlight {
		n.issueValidation()
	}
}

func (n *Node) issueValidation() {
	if n.valInFlight || !n.tx.InTx() || n.tx.VSB.Empty() {
		return
	}
	ent, ok := n.tx.VSB.NextToValidate()
	if !ok {
		return
	}
	n.val.ent = ent
	n.val.epoch = n.tx.Epoch
	n.val.ri = n.reqInfo(true, true)
	n.valInFlight = true
	n.stats.Validations++
	n.m.net.SendControlMsg(&n.val)
}

func (n *Node) onValidationResp(ent htm.VSBEntry, epoch uint64, resp coherence.Resp) {
	n.valInFlight = false
	stale := n.tx.Epoch != epoch
	switch resp.Kind {
	case coherence.RespData:
		n.m.dir.SendUnblock(ent.Line)
		if stale {
			// Ownership granted to a dead transaction: adopt the line as a
			// plain clean copy so the directory's view stays consistent.
			if n.l1.Peek(ent.Line) == nil {
				n.install(ent.Line, cache.Modified, resp.Data, false, false)
			}
			return
		}
		match := resp.Data == ent.Data
		if match && n.m.inj != nil && n.m.inj.ValFail() {
			// Forced validation failure: the consumed line is treated as
			// stale, driving the policy's mismatch path (an abort — never
			// an unsound commit).
			n.m.countFault(n.id, "valfail")
			match = false
		}
		out, cause := n.policy.ValidationCheck(n.tx, false, resp.PiC, match)
		switch out {
		case htm.ValidationDone:
			n.tx.VSB.Remove(ent.Line)
			n.stats.ValidationsOK++
			n.validatedThisTx++
			n.m.emitValidate(n.id, ent.Line, true)
			if e := n.l1.Peek(ent.Line); e != nil {
				e.Spec = false // the fiction is now real ownership
			}
			if n.tx.VSB.Empty() {
				n.tx.Cons = false
				if n.tx.Status == htm.Committing && n.commitDone != nil {
					done := n.commitDone
					n.commitDone = nil
					n.finalizeCommit(done)
					return
				}
			}
			n.armValidationTimer()
		case htm.ValidationAbort:
			n.abortTx(cause)
		case htm.ValidationPending:
			n.armValidationTimer()
		}
	case coherence.RespSpec:
		if stale {
			return
		}
		match := resp.Data == ent.Data
		if match && n.m.inj != nil && n.m.inj.ValFail() {
			n.m.countFault(n.id, "valfail")
			match = false
		}
		out, cause := n.policy.ValidationCheck(n.tx, true, resp.PiC, match)
		if out == htm.ValidationAbort {
			n.abortTx(cause)
			return
		}
		n.m.emitValidate(n.id, ent.Line, false)
		n.armValidationTimer()
	case coherence.RespNack:
		if stale {
			return
		}
		n.armValidationTimer()
	}
}
