package htm

import (
	"testing"

	"chats/internal/mem"
)

func TestCMHotLine(t *testing.T) {
	h := NewHeatTable(3)
	line := mem.Addr(0x1000)
	other := mem.Addr(0x2000)

	if h.OverrideNack(line) {
		t.Fatal("cold line nacked")
	}
	h.NoteLineAbort(line)
	h.NoteLineAbort(line)
	if h.OverrideNack(line) {
		t.Fatal("line nacked below threshold")
	}
	h.NoteLineAbort(line)
	if !h.OverrideNack(line) {
		t.Fatal("hot line not nacked at threshold")
	}
	if h.OverrideNack(other) {
		t.Fatal("unrelated line nacked")
	}
	h.NoteLineAbort(other)
	if h.OverrideNack(other) {
		t.Fatal("line nacked after one abort")
	}

	// Decay halves heat machine-wide; 3/2 = 1 drops below the threshold.
	h.decay()
	if h.OverrideNack(line) {
		t.Fatal("line still hot after decay")
	}
	// A second decay drops the entry entirely.
	h.decay()
	if len(h.heat) != 0 {
		t.Fatalf("heat table not emptied: %v", h.heat)
	}

	// The machine-wide decay fires by itself every heatDecayEvery aborts.
	h = NewHeatTable(3)
	for i := 0; i < heatDecayEvery; i++ {
		h.NoteLineAbort(line)
	}
	if n := h.heat[line]; n != heatDecayEvery/2 || h.events != 0 {
		t.Fatalf("after %d aborts: heat %d, events %d; want %d, 0", heatDecayEvery, n, h.events, heatDecayEvery/2)
	}
}

func TestCMHotLineDisabled(t *testing.T) {
	h := NewHeatTable(0)
	if h != nil {
		t.Fatalf("threshold 0 built a table: %+v", h)
	}
	for i := 0; i < 100; i++ {
		h.NoteLineAbort(mem.Addr(0x40))
	}
	if h.OverrideNack(mem.Addr(0x40)) {
		t.Fatal("threshold 0 must disable the override")
	}
	if h.OverrideNack(mem.Addr(0x80)) {
		t.Fatal("threshold 0 nacked a line it never saw")
	}
}
