// Package telemetry is the simulator's observability layer: a Collector
// that implements machine.Tracer and turns the event stream into
// (1) a metrics registry of counters, gauges, fixed-bucket histograms and
// cycle-windowed time series, (2) structured exports — JSON Lines and
// Chrome trace_event format loadable in Perfetto — and (3) attribution
// reports: a hot-line profiler over the top-K contended addresses and a
// chain-topology report (depth distribution, fan-out, NACK counts).
//
// The package deliberately does not import internal/machine: the
// Collector satisfies the machine's tracer interfaces structurally, so
// the simulator core carries no telemetry dependency and its no-tracer
// path stays an empty loop.
package telemetry

import (
	"fmt"
	"io"

	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
)

// Kind discriminates the event records the Collector retains.
type Kind uint8

const (
	KindBegin Kind = iota
	KindCommit
	KindAbort
	KindForward
	KindConsume
	KindValidate
	KindFallback
	KindConflict
	KindNack
	KindVSB
	KindFault
)

func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindForward:
		return "forward"
	case KindConsume:
		return "consume"
	case KindValidate:
		return "validate"
	case KindFallback:
		return "fallback"
	case KindConflict:
		return "conflict"
	case KindNack:
		return "nack"
	case KindVSB:
		return "vsb"
	case KindFault:
		return "fault"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one structured simulator occurrence. Core is the acting core
// (the producer for forwards, the set-holder for conflicts); Peer is the
// counterpart core where one exists (-1 otherwise). Which of the
// remaining fields are meaningful depends on Kind.
type Event struct {
	Cycle uint64
	Kind  Kind
	Core  int
	Peer  int

	Line    mem.Addr
	HasLine bool

	Attempt  int                 // begin
	Consumed int                 // commit: lines validated through the VSB
	Power    bool                // begin
	Cause    htm.AbortCause      // abort
	PiC      coherence.PiC       // forward, consume
	Probe    coherence.ProbeKind // conflict
	Decision htm.ProbeDecision   // conflict
	OK       bool                // validate
	Occ      int                 // vsb
	Fault    string              // fault: injected kind ("spurious", ...)
}

// appendJSON renders the event as one JSON object without reflection, so
// exports are fast and field order is deterministic for golden tests.
func (e Event) appendJSON(b []byte) []byte {
	b = fmt.Appendf(b, `{"cycle":%d,"kind":%q,"core":%d`, e.Cycle, e.Kind.String(), e.Core)
	if e.Peer >= 0 {
		b = fmt.Appendf(b, `,"peer":%d`, e.Peer)
	}
	if e.HasLine {
		b = fmt.Appendf(b, `,"line":"0x%x"`, uint64(e.Line))
	}
	switch e.Kind {
	case KindBegin:
		b = fmt.Appendf(b, `,"attempt":%d,"power":%t`, e.Attempt, e.Power)
	case KindCommit:
		b = fmt.Appendf(b, `,"consumed":%d`, e.Consumed)
	case KindAbort:
		b = fmt.Appendf(b, `,"cause":%q`, e.Cause.String())
	case KindForward, KindConsume:
		b = fmt.Appendf(b, `,"pic":%d`, int(e.PiC))
	case KindValidate:
		b = fmt.Appendf(b, `,"ok":%t`, e.OK)
	case KindConflict:
		b = fmt.Appendf(b, `,"probe":%q,"decision":%q`, e.Probe.String(), e.Decision.String())
	case KindVSB:
		b = fmt.Appendf(b, `,"occ":%d`, e.Occ)
	case KindFault:
		b = fmt.Appendf(b, `,"fault":%q`, e.Fault)
	}
	return append(b, '}', '\n')
}

// TraceSchema names the JSONL trace layout; the header line every
// export starts with carries it so stored traces are self-describing.
const TraceSchema = "chats-trace/v1"

// WriteJSONL writes the retained event stream as JSON Lines: a schema
// header line first ({"schema":"chats-trace/v1",...}), then one event
// per line in emission order. If the event buffer was capped, a final
// meta line additionally reports how many events were dropped.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if _, err := fmt.Fprintf(w, `{"schema":%q,"events":%d,"dropped":%d}`+"\n",
		TraceSchema, len(c.Events), c.Dropped); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	for _, e := range c.Events {
		buf = e.appendJSON(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if c.Dropped > 0 {
		if _, err := fmt.Fprintf(w, `{"kind":"meta","dropped":%d}`+"\n", c.Dropped); err != nil {
			return err
		}
	}
	return nil
}
