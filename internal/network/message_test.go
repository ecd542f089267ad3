package network_test

import (
	"testing"

	"chats/internal/network"
	"chats/internal/sim"
)

// arrival records its delivery cycle; the payload type every test uses.
// Like the simulator's messages, it carries its own delivery event.
type arrival struct {
	ev  sim.Event
	eng *sim.Engine
	log *[]uint64
}

func (a *arrival) Run() { *a.log = append(*a.log, a.eng.Now()) }

func newArrival(eng *sim.Engine, log *[]uint64) *sim.Event {
	a := &arrival{eng: eng, log: log}
	a.ev.Bind(a)
	return &a.ev
}

// TestEndpointFlitAccounting pins the per-class cost model on the
// embedded-event path every node and the directory send through: a
// control message is ControlFlits flits delivered after
// linkLatency+ControlFlits cycles, a data message DataFlits flits after
// linkLatency+DataFlits, and the network counts every class and flit
// exactly.
func TestEndpointFlitAccounting(t *testing.T) {
	var eng sim.Engine
	const linkLatency = 3
	net := network.New(&eng, linkLatency)

	var log []uint64
	net.PostControl(newArrival(&eng, &log))
	net.PostData(newArrival(&eng, &log))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []uint64{linkLatency + network.ControlFlits, linkLatency + network.DataFlits}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("delivery cycles = %v, want %v", log, want)
	}
	st := net.Stats
	if st.ControlMsgs != 1 || st.DataMsgs != 1 || st.Messages != 2 {
		t.Fatalf("counts = %+v, want 1 control + 1 data", st)
	}
	if want := uint64(network.ControlFlits + network.DataFlits); st.Flits != want {
		t.Fatalf("flits = %d, want %d", st.Flits, want)
	}
}

// TestEndpointJitterInOrderClamp pins the Jitter contract on the
// embedded-event path: a jittered message holds up everything sent after
// it (the lastDelivery clamp models backpressure — the coherence
// protocol needs point-to-point order), so a later un-jittered send may
// not overtake it.
func TestEndpointJitterInOrderClamp(t *testing.T) {
	var eng sim.Engine
	const linkLatency = 1
	net := network.New(&eng, linkLatency)
	jitters := []uint64{20, 0} // first send stalled, second nominally fast
	net.Jitter = func() uint64 {
		j := jitters[0]
		jitters = jitters[1:]
		return j
	}

	var log []uint64
	first := linkLatency + uint64(network.ControlFlits) + 20
	net.PostControl(newArrival(&eng, &log)) // delivers at first
	net.PostControl(newArrival(&eng, &log)) // would deliver at 2 unclamped
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(log))
	}
	if log[0] != first {
		t.Fatalf("jittered message delivered at %d, want %d", log[0], first)
	}
	if log[1] < log[0] {
		t.Fatalf("later send overtook earlier: delivered at %d before %d", log[1], log[0])
	}
	if log[1] != first {
		t.Fatalf("clamped message delivered at %d, want clamp to %d", log[1], first)
	}
}
