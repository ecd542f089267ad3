package machine

import (
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
)

// Event-emission helpers. Every site in the protocol code funnels through
// these, so each event is one loop over the observers SetTracer resolved
// for its hook family: with nothing attached the loop is empty and emits
// allocate nothing (pinned by TestNilTracerEmitsNoAllocations). When the
// watchdog is armed its event ring is the first observer; its slots are
// plain values, so recording allocates nothing either.

func (m *Machine) emitBegin(core, attempt int, power bool) {
	for _, t := range m.obs.tx {
		t.TxBegin(m.eng.Now(), core, attempt, power)
	}
}

func (m *Machine) emitCommit(core, consumed int) {
	for _, t := range m.obs.tx {
		t.TxCommit(m.eng.Now(), core, consumed)
	}
}

func (m *Machine) emitAbort(core int, cause htm.AbortCause) {
	for _, t := range m.obs.tx {
		t.TxAbort(m.eng.Now(), core, cause)
	}
}

func (m *Machine) emitForward(producer, requester int, line mem.Addr, pic coherence.PiC) {
	for _, t := range m.obs.tx {
		t.Forward(m.eng.Now(), producer, requester, line, pic)
	}
}

func (m *Machine) emitConsume(core int, line mem.Addr, pic coherence.PiC) {
	for _, t := range m.obs.tx {
		t.Consume(m.eng.Now(), core, line, pic)
	}
}

func (m *Machine) emitValidate(core int, line mem.Addr, ok bool) {
	for _, t := range m.obs.tx {
		t.Validate(m.eng.Now(), core, line, ok)
	}
}

func (m *Machine) emitFallback(core int) {
	for _, t := range m.obs.tx {
		t.Fallback(m.eng.Now(), core)
	}
}

func (m *Machine) emitConflict(holder, requester int, line mem.Addr, kind coherence.ProbeKind, dec htm.ProbeDecision) {
	for _, t := range m.obs.tx {
		t.Conflict(m.eng.Now(), holder, requester, line, kind, dec)
	}
}

func (m *Machine) emitNackRetry(core int, line mem.Addr) {
	for _, t := range m.obs.tx {
		t.NackRetry(m.eng.Now(), core, line)
	}
}

func (m *Machine) emitVSBOccupancy(core, occ int) {
	for _, t := range m.obs.tx {
		t.VSBOccupancy(m.eng.Now(), core, occ)
	}
}

func (m *Machine) emitOp(core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	for _, t := range m.obs.op {
		t.Op(m.eng.Now(), core, op, inTx, addr, val, val2, ok)
	}
}

// countFault records one injected fault: the aggregate stat and every
// FaultTracer. kind is a static string from the fault-spec grammar.
func (m *Machine) countFault(core int, kind string) {
	m.stats.FaultsInjected++
	for _, t := range m.obs.fault {
		t.FaultInjected(m.eng.Now(), core, kind)
	}
}
