// Package coherence implements the directory side of a blocking MESI
// protocol over the simulated interconnect, extended with the two
// mechanisms CHATS needs (Section IV-A / V-A):
//
//   - an owner or sharer that receives a conflicting probe may answer
//     with a speculative data response (SpecResp) and cancel the request
//     at the directory, which then leaves coherence state untouched; and
//   - negative acknowledgements (nacks) that make the requester retry,
//     as used by requester-stalls policies such as PowerTM.
//
// The directory is "blocking": it processes one request per line at a
// time and queues the rest, which serializes races the way the paper's
// Ruby protocol does at its transient states.
package coherence

import "chats/internal/mem"

// PiC is the Position-in-Chain value carried in coherence messages
// (Section IV-C). Valid chain positions are 0..PiCMax; PiCNone marks a
// transaction that is not part of any chain; PiCPower marks a forwarding
// by a PowerTM power transaction, which sits above every chain and must
// not change the consumer's PiC (Section VI-B, PCHATS).
type PiC int8

const (
	PiCNone  PiC = -1
	PiCPower PiC = -2
	// PiCMax is the largest encodable position (5-bit register, one value
	// reserved for "unset": 0..30 usable, initial value in the middle).
	PiCMax  PiC = 30
	PiCInit PiC = 15
)

// Valid reports whether p is a real chain position.
func (p PiC) Valid() bool { return p >= 0 && p <= PiCMax }

// ReqInfo describes the requester of a coherence transaction; it is the
// information piggybacked on request messages and forwarded probes that
// CHATS consumes to make forwarding decisions.
type ReqInfo struct {
	ID           int    // requesting core
	IsTx         bool   // request issued from inside a transaction
	Power        bool   // requester holds the PowerTM token
	PiC          PiC    // requester's current PiC
	TS           uint64 // requester's transaction timestamp (LEVC's idealized scheme)
	IsValidation bool   // request re-issued by the VSB validation controller
}

// ProbeKind distinguishes the probes a core can receive.
type ProbeKind uint8

const (
	// FwdGetS: a remote read request forwarded to the exclusive owner.
	FwdGetS ProbeKind = iota
	// FwdGetX: a remote write request forwarded to the exclusive owner.
	FwdGetX
	// InvProbe: an invalidation sent to a sharer on a remote write.
	InvProbe
)

func (k ProbeKind) String() string {
	switch k {
	case FwdGetS:
		return "FwdGetS"
	case FwdGetX:
		return "FwdGetX"
	case InvProbe:
		return "Inv"
	}
	return "Probe?"
}

// ProbeReplier is the directory-side continuation of a probe: the flow
// object that knows how to route the core's answer. Pooled per-flow
// structs implement it so probes carry no closures.
type ProbeReplier interface {
	// ReplyData services the request normally: the line (and, for
	// FwdGetX, ownership) moves to the requester and the memory image is
	// refreshed. For InvProbe the data argument is ignored (the directory
	// supplies memory data) and this means "invalidated, no conflict".
	ReplyData(data mem.Line)
	// ReplyNoData tells the directory the core no longer holds the line
	// (silent invalidation already happened); the directory serves the
	// committed copy from the memory image.
	ReplyNoData()
	// ReplySpec answers the requester with speculative data while
	// retaining ownership; the request is cancelled at the directory and
	// coherence state is left unchanged. pic is the producer's PiC after
	// any update mandated by the CHATS rules.
	ReplySpec(data mem.Line, pic PiC)
	// ReplyNack refuses the request without data; the requester will
	// retry. Coherence state is unchanged.
	ReplyNack()
}

// Probe is delivered to a core when the directory needs its copy of a
// line. The core must call exactly one of the reply methods; each
// already accounts for the response messages and directory bookkeeping.
type Probe struct {
	Line mem.Addr
	Kind ProbeKind
	Req  ReqInfo

	// Reply is the directory flow awaiting this probe's answer.
	Reply ProbeReplier
}

// The reply methods delegate to the flow object, keeping the core-side
// call syntax independent of the dispatch plumbing.

func (p Probe) ReplyData(data mem.Line)          { p.Reply.ReplyData(data) }
func (p Probe) ReplyNoData()                     { p.Reply.ReplyNoData() }
func (p Probe) ReplySpec(data mem.Line, pic PiC) { p.Reply.ReplySpec(data, pic) }
func (p Probe) ReplyNack()                       { p.Reply.ReplyNack() }

// RespKind tags the response a requester receives for GetS/GetX.
type RespKind uint8

const (
	// RespData carries committed data. For GetS, Excl says whether the
	// grant is Exclusive (sole copy) or Shared; for GetX the grant is
	// always exclusive ownership.
	RespData RespKind = iota
	// RespSpec carries a speculative value forwarded by a producer
	// transaction; no coherence permissions were transferred.
	RespSpec
	// RespNack carries nothing; retry later.
	RespNack
)

// Resp is the response to a GetS/GetX delivered back at the requester
// (network latency already applied).
type Resp struct {
	Kind RespKind
	Data mem.Line
	Excl bool // RespData on GetS: exclusive (E) grant
	PiC  PiC  // RespSpec: producer's PiC
}

// RespHandler receives the response to a GetS/GetX at the requester.
// The machine's pooled access structs implement it directly; tests use
// the RespFunc adapter.
type RespHandler interface {
	HandleResp(r Resp)
}

// RespFunc adapts a plain function to RespHandler.
type RespFunc func(Resp)

// HandleResp invokes the function.
func (f RespFunc) HandleResp(r Resp) { f(r) }

// Core is the directory's view of an L1 cache controller.
type Core interface {
	// HandleProbe is invoked (already network-delayed) when the directory
	// needs this core's copy of a line.
	HandleProbe(p Probe)
}
