package htm

import (
	"testing"
	"testing/quick"

	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/mem"
)

func TestTxLifecycle(t *testing.T) {
	tx := NewTxState(4)
	if tx.InTx() || tx.Status != Idle {
		t.Fatal("fresh state not idle")
	}
	tx.Begin(1, 16)
	if !tx.InTx() || tx.Attempt != 1 || tx.PiC != coherence.PiCNone {
		t.Fatalf("post-begin: %+v", tx)
	}
	e0 := tx.Epoch
	tx.MarkAborted(CauseConflict)
	if tx.Status != Aborted || tx.Cause != CauseConflict || tx.Epoch == e0 {
		t.Fatalf("post-abort: %+v", tx)
	}
	tx.Finish()
	if tx.Status != Idle {
		t.Fatal("not idle after finish")
	}
}

// TestTransitionsResetL1ReadSet: Begin, MarkAborted and Finish each
// empty the read set the L1 holds.
func TestTransitionsResetL1ReadSet(t *testing.T) {
	tx := NewTxState(4)
	tx.L1 = cache.New(4*1024, 4)
	_, _, e := tx.L1.Insert(0x40, cache.Shared, mem.Line{})
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"Begin", func() { tx.Begin(1, 16) }},
		{"MarkAborted", func() { tx.MarkAborted(CauseConflict) }},
		{"Finish", func() { tx.Finish() }},
	} {
		tx.L1.MarkRead(e)
		step.do()
		if tx.L1.Reads(0x40) {
			t.Fatalf("%s kept the read set", step.name)
		}
	}
}

func TestAbortOutsideTxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTxState(4).MarkAborted(CauseConflict)
}

func TestBeginClearsChatsState(t *testing.T) {
	tx := NewTxState(4)
	tx.Begin(1, 16)
	tx.PiC = 10
	tx.Cons = true
	tx.VSB.Add(0x40, mem.Line{1})
	tx.Forwarded = true
	tx.MarkAborted(CauseCycle)
	tx.Finish()
	tx.Begin(2, 16)
	if tx.PiC != coherence.PiCNone || tx.Cons || !tx.VSB.Empty() || tx.Forwarded {
		t.Fatalf("state leaked across attempts: %+v", tx)
	}
}

func TestVSBAddRemove(t *testing.T) {
	v := NewVSB(4)
	if !v.Empty() || v.Full() || len(v.entries) != 4 {
		t.Fatal("fresh VSB wrong")
	}
	for i := 0; i < 4; i++ {
		if !v.Add(mem.Addr(i*64), mem.Line{uint64(i)}) {
			t.Fatalf("add %d failed", i)
		}
	}
	if !v.Full() || v.Len() != 4 {
		t.Fatal("should be full")
	}
	if v.Add(0x1000, mem.Line{}) {
		t.Fatal("add to full VSB succeeded")
	}
	// Re-adding an existing line refreshes rather than consuming a slot.
	if !v.Add(0x40, mem.Line{99}) {
		t.Fatal("refresh failed")
	}
	if d, ok := v.Lookup(0x40); !ok || d[0] != 99 {
		t.Fatal("refresh not applied")
	}
	if !v.Remove(0x40) || v.Remove(0x40) {
		t.Fatal("remove semantics wrong")
	}
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	if _, ok := v.Lookup(0x40); ok {
		t.Fatal("removed entry still found")
	}
}

func TestVSBLookupNormalizesToLine(t *testing.T) {
	v := NewVSB(2)
	v.Add(0x47, mem.Line{5}) // mid-line address
	if d, ok := v.Lookup(0x40); !ok || d[0] != 5 {
		t.Fatal("line normalization broken")
	}
}

func TestVSBRoundRobinValidation(t *testing.T) {
	v := NewVSB(4)
	v.Add(0x00, mem.Line{})
	v.Add(0x40, mem.Line{})
	v.Add(0x80, mem.Line{})
	var order []mem.Addr
	for i := 0; i < 6; i++ {
		e, ok := v.NextToValidate()
		if !ok {
			t.Fatal("unexpected empty")
		}
		order = append(order, e.Line)
	}
	want := []mem.Addr{0x00, 0x40, 0x80, 0x00, 0x40, 0x80}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	// Removing the middle entry keeps rotation sane.
	v.Remove(0x40)
	seen := map[mem.Addr]int{}
	for i := 0; i < 4; i++ {
		e, _ := v.NextToValidate()
		seen[e.Line]++
	}
	if seen[0x40] != 0 || seen[0x00] != 2 || seen[0x80] != 2 {
		t.Fatalf("post-remove rotation = %v", seen)
	}
}

func TestVSBNextToValidateEmpty(t *testing.T) {
	v := NewVSB(2)
	if _, ok := v.NextToValidate(); ok {
		t.Fatal("empty VSB returned an entry")
	}
	v.Add(0x40, mem.Line{})
	v.Clear()
	if _, ok := v.NextToValidate(); ok {
		t.Fatal("cleared VSB returned an entry")
	}
}

// Property: VSB count always equals the number of valid entries, and a
// full buffer of distinct lines rejects new distinct lines.
func TestVSBCountInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		v := NewVSB(4)
		model := map[mem.Addr]bool{}
		for _, op := range ops {
			line := mem.Addr(op%8) * 64
			if op&0x80 == 0 {
				if v.Add(line, mem.Line{}) {
					model[line] = true
				} else if !model[line] && len(model) != 4 {
					return false // rejected while not full
				}
			} else {
				if v.Remove(line) != model[line] {
					return false
				}
				delete(model, line)
			}
			if v.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	for s := Idle; s <= Fallback; s++ {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
	for c := CauseNone; int(c) < NumCauses; c++ {
		if c.String() == "" {
			t.Fatal("empty cause string")
		}
	}
	if DecideAbort.String() != "abort" || DecideSpec.String() != "spec" || DecideNack.String() != "nack" {
		t.Fatal("decision strings")
	}
	if ForwardRW.String() != "R/W" || ForwardW.String() != "W" || ForwardRrestrictW.String() != "Rrestrict/W" {
		t.Fatal("forward mode strings")
	}
}

// TestVSBNextToValidateCorruptCount: a count that claims valid entries
// the buffer does not hold yields no entry, with Len still nonzero, so
// the caller can name the inconsistency with its cycle and core.
func TestVSBNextToValidateCorruptCount(t *testing.T) {
	v := NewVSB(2)
	v.count = 1
	if _, ok := v.NextToValidate(); ok || v.Len() != 1 {
		t.Fatalf("corrupt VSB: ok %v, Len %d; want no entry, Len 1", ok, v.Len())
	}
}
