package machine

import (
	"fmt"
	"slices"
	"strings"

	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
)

// ringCapacity is how many recent events the watchdog diagnostic keeps.
const ringCapacity = 64

// ring event kinds (a compact mirror of the tracer events; the ring is
// attached whenever the watchdog is armed, so a livelock dump always has
// recent history).
const (
	ringBegin uint8 = iota
	ringCommit
	ringAbort
	ringForward
	ringConsume
	ringValidate
	ringFallback
	ringConflict
	ringNack
	ringFault
	ringOp
)

// ringEvent is one fixed-size slot; all fields are values so recording
// never allocates (the strings stored are static names).
type ringEvent struct {
	cycle uint64
	kind  uint8
	core  int
	peer  int
	line  mem.Addr
	a     uint64
	s     string
}

func (e ringEvent) String() string {
	switch e.kind {
	case ringBegin:
		return fmt.Sprintf("%d core%d begin attempt=%d", e.cycle, e.core, e.a)
	case ringCommit:
		return fmt.Sprintf("%d core%d commit", e.cycle, e.core)
	case ringAbort:
		return fmt.Sprintf("%d core%d abort cause=%s", e.cycle, e.core, e.s)
	case ringForward:
		return fmt.Sprintf("%d core%d forward %v to core%d (PiC=%d)", e.cycle, e.core, e.line, e.peer, int64(e.a))
	case ringConsume:
		return fmt.Sprintf("%d core%d consume %v (PiC=%d)", e.cycle, e.core, e.line, int64(e.a))
	case ringValidate:
		return fmt.Sprintf("%d core%d validate %v ok=%v", e.cycle, e.core, e.line, e.a != 0)
	case ringFallback:
		return fmt.Sprintf("%d core%d fallback", e.cycle, e.core)
	case ringConflict:
		return fmt.Sprintf("%d core%d conflict with core%d on %v -> %s", e.cycle, e.core, e.peer, e.line, e.s)
	case ringNack:
		return fmt.Sprintf("%d core%d nack-retry %v", e.cycle, e.core, e.line)
	case ringFault:
		return fmt.Sprintf("%d core%d fault %s", e.cycle, e.core, e.s)
	case ringOp:
		return fmt.Sprintf("%d core%d %s %v", e.cycle, e.core, e.s, e.line)
	}
	return fmt.Sprintf("%d ringEvent(%d)", e.cycle, e.kind)
}

// eventRing is a fixed-capacity overwrite-oldest buffer. It observes
// the run like any tracer (Tracer, OpTracer, FaultTracer);
// VSB occupancy is the one event it does not keep.
type eventRing struct {
	NopTracer
	buf  []ringEvent
	next int
	full bool
}

func newEventRing(capacity int) *eventRing {
	return &eventRing{buf: make([]ringEvent, capacity)}
}

func (r *eventRing) add(e ringEvent) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *eventRing) TxBegin(cycle uint64, core, attempt int, power bool) {
	r.add(ringEvent{cycle: cycle, kind: ringBegin, core: core, a: uint64(attempt)})
}

func (r *eventRing) TxCommit(cycle uint64, core int, consumed int) {
	r.add(ringEvent{cycle: cycle, kind: ringCommit, core: core})
}

func (r *eventRing) TxAbort(cycle uint64, core int, cause htm.AbortCause) {
	r.add(ringEvent{cycle: cycle, kind: ringAbort, core: core, s: cause.String()})
}

func (r *eventRing) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {
	r.add(ringEvent{cycle: cycle, kind: ringForward, core: producer, peer: requester, line: line, a: uint64(pic)})
}

func (r *eventRing) Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC) {
	r.add(ringEvent{cycle: cycle, kind: ringConsume, core: core, line: line, a: uint64(pic)})
}

func (r *eventRing) Validate(cycle uint64, core int, line mem.Addr, ok bool) {
	var okBit uint64
	if ok {
		okBit = 1
	}
	r.add(ringEvent{cycle: cycle, kind: ringValidate, core: core, line: line, a: okBit})
}

func (r *eventRing) Fallback(cycle uint64, core int) {
	r.add(ringEvent{cycle: cycle, kind: ringFallback, core: core})
}

func (r *eventRing) Conflict(cycle uint64, holder, requester int, line mem.Addr, kind coherence.ProbeKind, dec htm.ProbeDecision) {
	r.add(ringEvent{cycle: cycle, kind: ringConflict, core: holder, peer: requester, line: line, s: dec.String()})
}

func (r *eventRing) NackRetry(cycle uint64, core int, line mem.Addr) {
	r.add(ringEvent{cycle: cycle, kind: ringNack, core: core, line: line})
}

func (r *eventRing) Op(cycle uint64, core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	r.add(ringEvent{cycle: cycle, kind: ringOp, core: core, line: addr, a: val, s: op.String()})
}

func (r *eventRing) FaultInjected(cycle uint64, core int, kind string) {
	r.add(ringEvent{cycle: cycle, kind: ringFault, core: core, s: kind})
}

// events returns the retained events, oldest first.
func (r *eventRing) events() []ringEvent {
	if !r.full {
		return r.buf[:r.next]
	}
	out := make([]ringEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// CoreSnapshot is a point-in-time view of one core's transactional
// state, used by the watchdog dump.
type CoreSnapshot struct {
	Core    int
	Status  htm.Status
	Attempt int
	Power   bool
	PiC     coherence.PiC
	Cons    bool
	VSBLen  int
	Cause   htm.AbortCause
	// ReadSet and WriteSet are the line addresses in the read signature
	// and write set, sorted for determinism. VSBLines are the lines held
	// as unvalidated speculative fictions, sorted too.
	ReadSet  []mem.Addr
	WriteSet []mem.Addr
	VSBLines []mem.Addr
}

// NumCores returns the number of simulated cores.
func (m *Machine) NumCores() int { return len(m.nodes) }

// Halt stops the simulation before the next event fires, making Run
// return err. Safe to call from tracer callbacks (the invariant checker
// uses it to stop on the first violation).
func (m *Machine) Halt(err error) { m.eng.Halt(err) }

// CoreSnapshot captures core i's current transactional state.
func (m *Machine) CoreSnapshot(i int) CoreSnapshot {
	n := m.nodes[i]
	tx := n.tx
	vsbLines := tx.VSB.Lines()
	slices.Sort(vsbLines)
	return CoreSnapshot{
		Core:     i,
		Status:   tx.Status,
		Attempt:  tx.Attempt,
		Power:    tx.Power,
		PiC:      tx.PiC,
		Cons:     tx.Cons,
		VSBLen:   tx.VSB.Len(),
		Cause:    tx.Cause,
		ReadSet:  n.l1.AppendReads(nil),
		WriteSet: n.l1.AppendSM(nil),
		VSBLines: vsbLines,
	}
}

// The accessors below read one field of core i's transactional state
// without building a CoreSnapshot: the invariant checker calls them on
// every commit, consume and validate, where sorting each core's sets
// would dominate its cost.

// TxStatus returns core i's transaction status.
func (m *Machine) TxStatus(i int) htm.Status { return m.nodes[i].tx.Status }

// TxCons reports whether core i's Cons bit is set.
func (m *Machine) TxCons(i int) bool { return m.nodes[i].tx.Cons }

// TxPiC returns core i's position in chain.
func (m *Machine) TxPiC(i int) coherence.PiC { return m.nodes[i].tx.PiC }

// VSBLen returns the number of unvalidated entries in core i's VSB.
func (m *Machine) VSBLen(i int) int { return m.nodes[i].tx.VSB.Len() }

// InVSB reports whether core i's VSB holds line.
func (m *Machine) InVSB(i int, line mem.Addr) bool {
	_, ok := m.nodes[i].tx.VSB.Lookup(line)
	return ok
}

// InWriteSet reports whether line is in core i's write set.
func (m *Machine) InWriteSet(i int, line mem.Addr) bool { return m.nodes[i].l1.Writes(line) }

// AppendWriteSet appends core i's write-set lines to dst in ascending
// order and returns the extended slice. It visits only the L1 sets
// holding SM lines.
func (m *Machine) AppendWriteSet(dst []mem.Addr, i int) []mem.Addr {
	return m.nodes[i].l1.AppendSM(dst)
}

// LivelockError is returned by Run when the watchdog kills a run: either
// no forward progress for Window cycles (Core == -1) or a single atomic
// block exceeding the per-transaction attempt budget (Core >= 0). Dump
// holds the diagnostic: per-core state, chain registers and the last few
// trace events.
type LivelockError struct {
	Cycle   uint64
	Window  uint64
	Core    int
	Attempt int
	Dump    string
}

func (e *LivelockError) Error() string {
	head := fmt.Sprintf("livelock watchdog: no commit or fallback in %d cycles (cycle %d)", e.Window, e.Cycle)
	if e.Core >= 0 {
		head = fmt.Sprintf("livelock watchdog: core %d reached attempt %d of one atomic block (cycle %d)",
			e.Core, e.Attempt, e.Cycle)
	}
	return head + "\n" + e.Dump
}

const dumpAddrCap = 8 // addresses of a set shown before eliding

func fmtAddrs(as []mem.Addr) string {
	if len(as) == 0 {
		return "[]"
	}
	shown := as
	suffix := ""
	if len(shown) > dumpAddrCap {
		shown = shown[:dumpAddrCap]
		suffix = fmt.Sprintf(" +%d more", len(as)-dumpAddrCap)
	}
	parts := make([]string, len(shown))
	for i, a := range shown {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, " ") + suffix + "]"
}

// diagnosticDump renders the machine state for a LivelockError: per-core
// transactional state (the chain topology is readable off the PiC/Cons
// columns and the recent forward events), the power holder, and the last
// ringCapacity trace events.
func (m *Machine) diagnosticDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  state at cycle %d: %d events pending, power holder %d\n",
		m.eng.Now(), m.eng.Pending(), m.powerHolder)
	for i := range m.nodes {
		s := m.CoreSnapshot(i)
		fmt.Fprintf(&b, "  core %-2d %-10s attempt=%-3d power=%-5v PiC=%-3d cons=%-5v vsb=%d ws=%s rs=%s\n",
			i, s.Status, s.Attempt, s.Power, int64(s.PiC), s.Cons, s.VSBLen,
			fmtAddrs(s.WriteSet), fmtAddrs(s.ReadSet))
	}
	if m.ring != nil {
		evs := m.ring.events()
		fmt.Fprintf(&b, "  last %d events:\n", len(evs))
		for _, e := range evs {
			fmt.Fprintf(&b, "    %s\n", e.String())
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

func (m *Machine) livelockError(window uint64) error {
	return &LivelockError{Cycle: m.eng.Now(), Window: window, Core: -1, Dump: m.diagnosticDump()}
}

func (m *Machine) starvationError(core, attempt int) error {
	return &LivelockError{Cycle: m.eng.Now(), Core: core, Attempt: attempt, Dump: m.diagnosticDump()}
}
