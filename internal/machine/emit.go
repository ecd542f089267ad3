package machine

import (
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
)

// Event-emission helpers. Every site in the protocol code funnels through
// these so the no-tracer fast path is exactly one pointer check and zero
// allocations (pinned by TestNilTracerEmitsNoAllocations), and so the
// telemetry layer sees every event from one place. When the watchdog is
// armed (Config.WatchdogCycles > 0) the same helpers also record into
// the fixed-size diagnostic ring; its slots are plain values, so that
// path allocates nothing either.

func (m *Machine) emitBegin(core, attempt int, power bool) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringBegin, core: core, a: uint64(attempt)})
	}
	if m.tracer != nil {
		m.tracer.TxBegin(m.eng.Now(), core, attempt, power)
	}
}

func (m *Machine) emitCommit(core, consumed int) {
	if m.cm != nil {
		m.cm.NoteCommit(core)
	}
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringCommit, core: core})
	}
	if m.tracer != nil {
		m.tracer.TxCommit(m.eng.Now(), core, consumed)
	}
}

func (m *Machine) emitAbort(core int, cause htm.AbortCause) {
	if m.cm != nil {
		m.cm.NoteAbort(core)
	}
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringAbort, core: core, s: cause.String()})
	}
	if m.tracer != nil {
		m.tracer.TxAbort(m.eng.Now(), core, cause)
	}
}

// emitCMDecision records one post-abort contention-manager verdict.
// It is called from thread-side code, which is safe: the engine is
// blocked in this thread's rendezvous while it runs.
func (m *Machine) emitCMDecision(core int, act htm.CMAction) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringCM, core: core, s: act.String()})
	}
	if m.cmtracer != nil {
		m.cmtracer.CMDecision(m.eng.Now(), core, act)
	}
}

func (m *Machine) emitForward(producer, requester int, line mem.Addr, pic coherence.PiC) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringForward, core: producer, peer: requester,
			line: line, a: uint64(pic)})
	}
	if m.tracer != nil {
		m.tracer.Forward(m.eng.Now(), producer, requester, line, pic)
	}
}

func (m *Machine) emitConsume(core int, line mem.Addr, pic coherence.PiC) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringConsume, core: core, line: line, a: uint64(pic)})
	}
	if m.tracer != nil {
		m.tracer.Consume(m.eng.Now(), core, line, pic)
	}
}

func (m *Machine) emitValidate(core int, line mem.Addr, ok bool) {
	if m.ring != nil {
		var okBit uint64
		if ok {
			okBit = 1
		}
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringValidate, core: core, line: line, a: okBit})
	}
	if m.tracer != nil {
		m.tracer.Validate(m.eng.Now(), core, line, ok)
	}
}

func (m *Machine) emitFallback(core int) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringFallback, core: core})
	}
	if m.tracer != nil {
		m.tracer.Fallback(m.eng.Now(), core)
	}
}

func (m *Machine) emitConflict(holder, requester int, line mem.Addr, kind coherence.ProbeKind, dec htm.ProbeDecision) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringConflict, core: holder, peer: requester,
			line: line, s: dec.String()})
	}
	if m.xtracer != nil {
		m.xtracer.Conflict(m.eng.Now(), holder, requester, line, kind, dec)
	}
}

func (m *Machine) emitNackRetry(core int, line mem.Addr) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringNack, core: core, line: line})
	}
	if m.xtracer != nil {
		m.xtracer.NackRetry(m.eng.Now(), core, line)
	}
}

func (m *Machine) emitOp(core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringOp, core: core, line: addr, a: val, s: op.String()})
	}
	if m.optracer != nil {
		m.optracer.Op(m.eng.Now(), core, op, inTx, addr, val, val2, ok)
	}
}

// countFault records one injected fault: the aggregate stat, the
// diagnostic ring, and the FaultTracer (if attached). kind is a static
// string from the fault-spec grammar.
func (m *Machine) countFault(core int, kind string) {
	m.stats.FaultsInjected++
	if m.ring != nil {
		m.ring.add(ringEvent{cycle: m.eng.Now(), kind: ringFault, core: core, s: kind})
	}
	if m.ftracer != nil {
		m.ftracer.FaultInjected(m.eng.Now(), core, kind)
	}
}
