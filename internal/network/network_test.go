package network

import (
	"testing"

	"chats/internal/sim"
)

// msg is a message payload with its own delivery event, as the
// simulator's messages are.
type msg struct {
	ev sim.Event
	fn func()
}

func (m *msg) Run() { m.fn() }

// newMsg returns the delivery event of a fresh message that runs fn.
func newMsg(fn func()) *sim.Event {
	m := &msg{fn: fn}
	m.ev.Bind(m)
	return &m.ev
}

func TestLatencies(t *testing.T) {
	var e sim.Engine
	n := New(&e, 1)
	var ctrlAt, dataAt uint64
	n.PostControl(newMsg(func() { ctrlAt = e.Now() }))
	n.PostData(newMsg(func() { dataAt = e.Now() }))
	e.Run(0)
	if ctrlAt != 1+ControlFlits {
		t.Fatalf("control delivered at %d, want %d", ctrlAt, 1+ControlFlits)
	}
	if dataAt != 1+DataFlits {
		t.Fatalf("data delivered at %d, want %d", dataAt, 1+DataFlits)
	}
}

func TestFlitAccounting(t *testing.T) {
	var e sim.Engine
	n := New(&e, 1)
	for i := 0; i < 3; i++ {
		n.PostControl(newMsg(func() {}))
	}
	for i := 0; i < 2; i++ {
		n.PostData(newMsg(func() {}))
	}
	e.Run(0)
	if n.Stats.Messages != 5 {
		t.Fatalf("messages = %d", n.Stats.Messages)
	}
	if want := uint64(3*ControlFlits + 2*DataFlits); n.Stats.Flits != want {
		t.Fatalf("flits = %d, want %d", n.Stats.Flits, want)
	}
	if n.Stats.ControlMsgs != 3 || n.Stats.DataMsgs != 2 {
		t.Fatalf("msg split = %d/%d", n.Stats.ControlMsgs, n.Stats.DataMsgs)
	}
}

func TestOrderingSameSource(t *testing.T) {
	// Two control messages sent back to back arrive in send order.
	var e sim.Engine
	n := New(&e, 1)
	var got []int
	n.PostControl(newMsg(func() { got = append(got, 1) }))
	n.PostControl(newMsg(func() { got = append(got, 2) }))
	e.Run(0)
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("order = %v", got)
	}
}
