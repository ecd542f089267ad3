// Package network models the on-chip interconnect from Table I: a
// crossbar with 1-cycle links, 16-byte flits, 1 flit/cycle of link
// bandwidth, 1-flit control messages and 5-flit data messages. The model
// charges each message its serialization latency and counts flits, which
// is what Fig. 7 (normalized network usage in flits) needs; crossbars are
// non-blocking, so port contention is not modelled.
package network

import "chats/internal/sim"

// Flit sizes per message class (Table I).
const (
	ControlFlits = 1
	DataFlits    = 5
)

// Stats aggregates interconnect usage.
type Stats struct {
	Messages    uint64
	Flits       uint64
	ControlMsgs uint64
	DataMsgs    uint64
}

// Network delivers messages between nodes after a latency of
// linkLatency + flits cycles (one cycle per flit of serialization).
type Network struct {
	eng         *sim.Engine
	linkLatency uint64
	Stats       Stats

	// Jitter, when non-nil, returns extra delivery latency (in cycles)
	// charged to the message being sent. The fault injector uses it to
	// model a congested interconnect; it must be deterministic (seeded
	// from sim.Rand) to keep runs reproducible.
	//
	// While Jitter is attached the network delivers in strict send order
	// (lastDelivery below): a delayed message holds up everything sent
	// after it, like backpressure in a congested fabric. Stretching
	// latency without that clamp would let messages overtake each other,
	// which the coherence protocol — like the real point-to-point
	// ordered interconnects it models — does not tolerate.
	Jitter func() uint64

	lastDelivery uint64
}

// New builds a crossbar attached to the engine.
func New(eng *sim.Engine, linkLatency uint64) *Network {
	return &Network{eng: eng, linkLatency: linkLatency}
}

// SendControlMsg sends a 1-flit message whose delivery runs r, lent an
// event by sim.Engine.ScheduleRunner. Its one caller is the benchmark's
// network.send_ns; the simulator's messages carry their own events and
// go through PostControl and PostData.
func (n *Network) SendControlMsg(r sim.Runner) {
	n.eng.ScheduleRunner(n.delay(ControlFlits), r)
	n.Stats.ControlMsgs++
}

// PostControl sends a 1-flit message (requests, acks, nacks,
// cancellations) whose delivery is the embedded event ev (see
// sim.Engine.Post): the payloads carry their own event, so sending
// neither allocates nor touches a free list.
func (n *Network) PostControl(ev *sim.Event) {
	n.eng.Post(n.delay(ControlFlits), ev)
	n.Stats.ControlMsgs++
}

// PostData is PostControl for a 5-flit message (any message carrying a
// cache line: data responses, SpecResp, writebacks).
func (n *Network) PostData(ev *sim.Event) {
	n.eng.Post(n.delay(DataFlits), ev)
	n.Stats.DataMsgs++
}

// delay accounts the message and computes its delivery latency,
// including fault-injected jitter and the in-order delivery clamp.
func (n *Network) delay(flits uint64) uint64 {
	n.Stats.Messages++
	n.Stats.Flits += flits
	delay := n.linkLatency + flits
	if n.Jitter != nil {
		delay += n.Jitter()
		now := n.eng.Now()
		if now+delay < n.lastDelivery {
			delay = n.lastDelivery - now
		}
		n.lastDelivery = now + delay
	}
	return delay
}
