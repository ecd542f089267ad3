package machine

import (
	"fmt"
	"io"

	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
)

// Tracer receives the transactional event stream of a run. Attach one
// or more with Machine.SetTracer before Run to debug a workload, study
// how chains form or check the protocol's rules. Embed NopTracer to
// implement only the hooks you need.
type Tracer interface {
	// TxBegin: core starts attempt n (power = holds the PowerTM token).
	TxBegin(cycle uint64, core, attempt int, power bool)
	// TxCommit: core commits (consumed = lines validated through the VSB).
	TxCommit(cycle uint64, core int, consumed int)
	// TxAbort: core rolls back.
	TxAbort(cycle uint64, core int, cause htm.AbortCause)
	// Forward: producer answers requester with speculative data for line,
	// placing itself at PiC pic.
	Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC)
	// Consume: core accepts a speculative line into its VSB at PiC pic.
	Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC)
	// Validate: a validation response for line (ok = entry left the VSB).
	Validate(cycle uint64, core int, line mem.Addr, ok bool)
	// Fallback: core takes the global-lock path.
	Fallback(cycle uint64, core int)
	// Conflict: a probe hit holder's read/write set and the policy chose
	// dec (the line is the contended address; requester is the other
	// side). Emitted for every conflicting probe, whatever the outcome.
	Conflict(cycle uint64, holder, requester int, line mem.Addr, kind coherence.ProbeKind, dec htm.ProbeDecision)
	// NackRetry: core re-issues a nacked demand access for line.
	NackRetry(cycle uint64, core int, line mem.Addr)
	// VSBOccupancy: core's VSB occupancy changed to occ.
	VSBOccupancy(cycle uint64, core, occ int)
}

// NopTracer implements every Tracer hook as a no-op. Embed it in a
// tracer that observes only some of the events.
type NopTracer struct{}

func (NopTracer) TxBegin(uint64, int, int, bool)                                              {}
func (NopTracer) TxCommit(uint64, int, int)                                                   {}
func (NopTracer) TxAbort(uint64, int, htm.AbortCause)                                         {}
func (NopTracer) Forward(uint64, int, int, mem.Addr, coherence.PiC)                           {}
func (NopTracer) Consume(uint64, int, mem.Addr, coherence.PiC)                                {}
func (NopTracer) Validate(uint64, int, mem.Addr, bool)                                        {}
func (NopTracer) Fallback(uint64, int)                                                        {}
func (NopTracer) Conflict(uint64, int, int, mem.Addr, coherence.ProbeKind, htm.ProbeDecision) {}
func (NopTracer) NackRetry(uint64, int, mem.Addr)                                             {}
func (NopTracer) VSBOccupancy(uint64, int, int)                                               {}

// OpKind classifies a workload-level memory operation in the OpTracer
// stream.
type OpKind uint8

const (
	OpLoad OpKind = iota
	OpStore
	OpCAS
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCAS:
		return "cas"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// OpTracer is an optional Tracer extension receiving every completed
// workload-level memory operation (the Ctx/Tx API surface — internal
// protocol traffic such as lock subscriptions and validation requests is
// not reported). The invariant checker's serializability oracle consumes
// this stream.
type OpTracer interface {
	// Op: core completed a memory operation. For OpLoad val is the value
	// read; for OpStore the value written; for OpCAS val is the previous
	// value, val2 the attempted new value and ok whether it swapped.
	// inTx marks speculative (transactional) operations; fallback-path
	// and plain operations report inTx=false. An operation that itself
	// dies with its transaction is not reported; completed speculative
	// operations of a transaction that aborts later ARE reported, and a
	// consumer must discard them on the TxAbort event.
	Op(cycle uint64, core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool)
}

// FaultTracer is an optional Tracer extension receiving every injected
// fault. kind is the fault's spec-grammar name ("spurious", "jitter",
// ...); core is -1 for faults not attributable to a core (jitter).
type FaultTracer interface {
	FaultInjected(cycle uint64, core int, kind string)
}

// RunChecker is an optional Tracer extension hooked into the run
// lifecycle: BeginRun fires after Workload.Setup (simulated memory laid
// out, no thread started), EndRun after the caches are flushed back to
// memory. A non-nil EndRun error fails the run. The invariant checker
// seeds and verifies its re-execution oracle through these.
type RunChecker interface {
	BeginRun(m *Machine)
	EndRun(m *Machine) error
}

// SetTracer attaches the given tracers in order, replacing any attached
// before; nil entries are skipped and no argument detaches them all.
// Call before Run. Each tracer's OpTracer, FaultTracer and RunChecker
// extensions are detected here, once, so an event costs one
// loop over the observers of its kind. When the watchdog is armed, its
// event ring stays attached as the first observer.
func (m *Machine) SetTracer(ts ...Tracer) {
	m.obs = observers{}
	if m.ring != nil {
		ts = append([]Tracer{m.ring}, ts...)
	}
	for _, t := range ts {
		if t == nil {
			continue
		}
		m.obs.tx = append(m.obs.tx, t)
		if o, ok := t.(OpTracer); ok {
			m.obs.op = append(m.obs.op, o)
		}
		if f, ok := t.(FaultTracer); ok {
			m.obs.fault = append(m.obs.fault, f)
		}
		if c, ok := t.(RunChecker); ok {
			m.obs.run = append(m.obs.run, c)
		}
	}
	for _, n := range m.nodes {
		n.tx.VSB.Observer = nil
		if len(m.obs.tx) > 0 {
			n.tx.VSB.Observer = func(occ int) { m.emitVSBOccupancy(n.id, occ) }
		}
	}
}

// WriterTracer formats events as one line each, prefixed with the cycle
// — handy with chatsim -trace.
type WriterTracer struct {
	NopTracer
	W io.Writer
}

func (t WriterTracer) TxBegin(cycle uint64, core, attempt int, power bool) {
	suffix := ""
	if power {
		suffix = " [power]"
	}
	fmt.Fprintf(t.W, "%10d core%-2d begin attempt=%d%s\n", cycle, core, attempt, suffix)
}

func (t WriterTracer) TxCommit(cycle uint64, core int, consumed int) {
	if consumed > 0 {
		fmt.Fprintf(t.W, "%10d core%-2d commit (validated %d forwarded lines)\n", cycle, core, consumed)
		return
	}
	fmt.Fprintf(t.W, "%10d core%-2d commit\n", cycle, core)
}

func (t WriterTracer) TxAbort(cycle uint64, core int, cause htm.AbortCause) {
	fmt.Fprintf(t.W, "%10d core%-2d abort cause=%s\n", cycle, core, cause)
}

func (t WriterTracer) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {
	fmt.Fprintf(t.W, "%10d core%-2d forward %v to core%d (PiC=%d)\n", cycle, producer, line, requester, pic)
}

func (t WriterTracer) Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC) {
	fmt.Fprintf(t.W, "%10d core%-2d consume %v (PiC=%d)\n", cycle, core, line, pic)
}

func (t WriterTracer) Validate(cycle uint64, core int, line mem.Addr, ok bool) {
	state := "pending"
	if ok {
		state = "validated"
	}
	fmt.Fprintf(t.W, "%10d core%-2d validate %v: %s\n", cycle, core, line, state)
}

func (t WriterTracer) Fallback(cycle uint64, core int) {
	fmt.Fprintf(t.W, "%10d core%-2d fallback lock\n", cycle, core)
}

// ChainTracer is a Tracer that records the forwarding graph of a run:
// every producer→consumer edge with its cycle, usable to reconstruct the
// chains CHATS built (and to assert acyclicity in tests).
type ChainTracer struct {
	NopTracer
	Edges []ChainEdge
}

// ChainEdge is one forwarding: Consumer must commit after Producer.
type ChainEdge struct {
	Cycle    uint64
	Producer int
	Consumer int
	Line     mem.Addr
	PiC      coherence.PiC
}

func (t *ChainTracer) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {
	t.Edges = append(t.Edges, ChainEdge{
		Cycle: cycle, Producer: producer, Consumer: requester, Line: line, PiC: pic,
	})
}

// MaxChainDepth estimates the longest producer chain observed. One pass
// over the edges in order raises each consumer's depth to one more than
// its producer's. Depths are kept per core for the whole run, so a core
// carries its depth into later transactions: the estimate is
// approximate but good enough to see chains form.
func (t *ChainTracer) MaxChainDepth() int {
	depth := map[int]int{}
	max := 0
	for _, e := range t.Edges {
		d := depth[e.Producer] + 1
		if d > depth[e.Consumer] {
			depth[e.Consumer] = d
		}
		if depth[e.Consumer] > max {
			max = depth[e.Consumer]
		}
	}
	return max
}
