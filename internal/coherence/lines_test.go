package coherence

import (
	"fmt"
	"testing"

	"chats/internal/mem"
)

// Directed tests for per-line independence in the blocking directory:
// a busy line blocks only its own requests, flows on different lines
// interleave freely, and the ForceNack seam covers every line without
// stranding a queue.

// requestInfo is rig.request with a caller-supplied ReqInfo (the fault
// seam only fires for transactional requests).
func (r *rig) requestInfo(t *testing.T, isX bool, line mem.Addr, req ReqInfo) Resp {
	t.Helper()
	var got *Resp
	handler := RespFunc(func(resp Resp) {
		got = &resp
		if resp.Kind == RespData {
			r.send(func() { r.dir.Unblock(line) })
		}
	})
	if isX {
		r.send(func() { r.dir.GetX(line, req, handler) })
	} else {
		r.send(func() { r.dir.GetS(line, req, handler) })
	}
	if _, err := r.eng.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no response")
	}
	return *got
}

// TestCrossBankIndependence pins that a busy line does not block
// service of a different line: while line A waits on an owner probe, a
// request for line B completes start to finish.
func TestCrossBankIndependence(t *testing.T) {
	r := newRig(3)
	lineA := mem.Addr(0x40)
	lineB := mem.Addr(0x80)
	r.request(t, true, lineA, 0) // core 0 owns A
	// Core 0 holds the forward probe: line A stays busy.
	var pending Probe
	r.cores[0].onProbe = func(p Probe) { pending = p }
	r.send(func() {
		r.dir.GetX(lineA, ReqInfo{ID: 1}, RespFunc(func(resp Resp) {
			if resp.Kind == RespData {
				r.send(func() { r.dir.Unblock(lineA) })
			}
		}))
	})
	r.eng.Run(0)
	if !r.dir.Busy(lineA) {
		t.Fatal("line A should be busy")
	}
	// Line B serves core 2 while line A is stuck.
	resp := r.request(t, true, lineB, 2)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("line B resp = %+v", resp)
	}
	if !r.dir.Busy(lineA) {
		t.Fatal("line B service released line A")
	}
	pending.ReplyData(mem.Line{1})
	r.eng.Run(1_000_000)
	if r.dir.Busy(lineA) {
		t.Fatal("line A stuck after probe reply")
	}
	if r.dir.Lines() != 2 {
		t.Fatalf("directory tracks %d lines, want 2", r.dir.Lines())
	}
}

// TestCrossBankInvalidationCollect builds S state on one line and
// upgrades it while another line is mid-flight: the invalidation
// collect must gather every ack without touching the other line.
func TestCrossBankInvalidationCollect(t *testing.T) {
	r := newRig(4)
	hot := mem.Addr(0xc0)
	r.request(t, false, hot, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyData(mem.Line{3}) }
	r.request(t, false, hot, 1)
	r.request(t, false, hot, 2)
	st, _, sharers := r.dir.StateOf(hot)
	if st != "S" || sharers != 0b111 {
		t.Fatalf("setup: %s %b", st, sharers)
	}
	// Park a request on a second line so two lines have in-flight work.
	r.request(t, true, 0x40, 3)
	var parked Probe
	r.cores[3].onProbe = func(p Probe) { parked = p }
	r.send(func() { r.dir.GetX(0x40, ReqInfo{ID: 0}, RespFunc(func(Resp) {})) })
	r.eng.Run(0)

	for _, c := range r.cores[1:3] {
		c.onProbe = func(p Probe) {
			if p.Kind != InvProbe {
				t.Fatalf("want Inv, got %v", p.Kind)
			}
			p.ReplyData(mem.Line{})
		}
	}
	before := r.dir.TotalStats().Invs
	resp := r.request(t, true, hot, 3)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(hot)
	if st != "E" || owner != 3 {
		t.Fatalf("dir %s owner %d", st, owner)
	}
	if !r.dir.Busy(0x40) {
		t.Fatal("collect on the hot line disturbed the parked line")
	}
	// Cores 0, 1 and 2 all shared the line: three invalidations.
	if invs := r.dir.TotalStats().Invs - before; invs != 3 {
		t.Fatalf("counted %d invalidations, want 3", invs)
	}
	parked.ReplyData(mem.Line{})
	r.eng.Run(1_000_000)
}

// TestWriteBackRacesForwardAcrossBanks: a core owning two lines writes
// one back while the other has a forward in flight — the writeback
// lands without perturbing the pending forward, which then resolves
// normally.
func TestWriteBackRacesForwardAcrossBanks(t *testing.T) {
	r := newRig(2)
	fwdLine := mem.Addr(0x40)
	wbLine := mem.Addr(0x80)
	r.request(t, true, fwdLine, 0)
	r.request(t, true, wbLine, 0)
	var pending Probe
	r.cores[0].onProbe = func(p Probe) { pending = p }
	var got *Resp
	r.send(func() {
		r.dir.GetX(fwdLine, ReqInfo{ID: 1}, RespFunc(func(resp Resp) {
			got = &resp
			r.send(func() { r.dir.Unblock(fwdLine) })
		}))
	})
	r.eng.Run(0)
	if !r.dir.Busy(fwdLine) {
		t.Fatal("forward line should be busy")
	}
	// The owner evicts the other line mid-forward.
	r.dir.WriteBack(wbLine, mem.Line{77}, 0, nil)
	if r.memry.ReadWord(wbLine) != 77 {
		t.Fatal("writeback not applied")
	}
	if st, _, _ := r.dir.StateOf(wbLine); st != "I" {
		t.Fatalf("written-back line %s after WB", st)
	}
	if !r.dir.Busy(fwdLine) {
		t.Fatal("writeback released the forward line")
	}
	pending.ReplyData(mem.Line{5})
	r.eng.Run(1_000_000)
	if got == nil || got.Kind != RespData || got.Data[0] != 5 {
		t.Fatalf("forward resp = %+v", got)
	}
	if st, owner, _ := r.dir.StateOf(fwdLine); st != "E" || owner != 1 {
		t.Fatalf("forward line %s owner %d", st, owner)
	}
}

// TestWideSharerSetInvalidation exercises the multi-word sharer set
// (cores above bit 63): 70 readers share a line, an upgrade must
// invalidate every one of them exactly once.
func TestWideSharerSetInvalidation(t *testing.T) {
	const n = 70
	r := newRig(n)
	hot := mem.Addr(0x40)
	r.request(t, false, hot, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyData(mem.Line{1}) }
	for id := 1; id < n-1; id++ {
		r.request(t, false, hot, id)
	}
	for _, c := range r.cores[:n-1] {
		c.onProbe = func(p Probe) { p.ReplyData(mem.Line{}) }
	}
	resp := r.request(t, true, hot, n-1)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("resp = %+v", resp)
	}
	if st, owner, _ := r.dir.StateOf(hot); st != "E" || owner != n-1 {
		t.Fatalf("dir %s owner %d", st, owner)
	}
	if invs := r.dir.TotalStats().Invs; invs != n-1 {
		t.Fatalf("counted %d invalidations, want %d", invs, n-1)
	}
	for id, c := range r.cores[:n-1] {
		got := 0
		for _, p := range c.probes {
			if p.Kind == InvProbe {
				got++
			}
		}
		if got != 1 {
			t.Fatalf("core %d saw %d Inv probes, want 1", id, got)
		}
	}
}

// TestGlobalForceNackStillCoversAllBanks: the ForceNack seam applies
// to every line, and — the queue-stranding regression — a request
// that is force-nacked on dequeue must still start the next waiter.
func TestGlobalForceNackStillCoversAllBanks(t *testing.T) {
	r := newRig(2)
	r.dir.ForceNack = func(req ReqInfo) bool { return true }
	for _, line := range []mem.Addr{0x0, 0x40, 0x80, 0xc0} {
		if resp := r.requestInfo(t, true, line, ReqInfo{ID: 0, IsTx: true}); resp.Kind != RespNack {
			t.Fatalf("line %v: resp = %+v", line, resp)
		}
		if r.dir.Busy(line) {
			t.Fatalf("line %v: bounced request left the line busy", line)
		}
	}
	if r.dir.TotalStats().Nacks != 4 {
		t.Fatalf("nack accounting: %d, want 4", r.dir.TotalStats().Nacks)
	}

	// Queue stranding: core 0 owns the line and holds core 3's forward
	// probe while cores 2 and 1 queue behind it. When the probe resolves,
	// core 2's dequeued request is force-nacked — core 1 behind it must
	// still be served, not stranded.
	r = newRig(4)
	hot := mem.Addr(0x140)
	r.dir.ForceNack = func(req ReqInfo) bool { return req.ID == 2 }
	if resp := r.request(t, true, hot, 0); resp.Kind != RespData {
		t.Fatal("owner setup failed")
	}
	var pending Probe
	r.cores[0].onProbe = func(p Probe) { pending = p }
	kinds := map[int]RespKind{}
	mk := func(id int) RespFunc {
		return func(resp Resp) {
			kinds[id] = resp.Kind
			if resp.Kind == RespData {
				r.send(func() { r.dir.Unblock(hot) })
			}
		}
	}
	r.send(func() { r.dir.GetX(hot, ReqInfo{ID: 3, IsTx: true}, mk(3)) })
	r.eng.Run(0)
	if !r.dir.Busy(hot) {
		t.Fatal("setup: forward should hold the line busy")
	}
	r.send(func() { r.dir.GetX(hot, ReqInfo{ID: 2, IsTx: true}, mk(2)) })
	r.eng.Run(0)
	r.send(func() { r.dir.GetX(hot, ReqInfo{ID: 1, IsTx: true}, mk(1)) })
	r.eng.Run(0)
	if r.dir.QueuedLen(hot) != 2 {
		t.Fatalf("setup: queued=%d, want 2", r.dir.QueuedLen(hot))
	}
	r.cores[0].onProbe = func(p Probe) { p.ReplyData(mem.Line{9}) }
	r.cores[3].onProbe = func(p Probe) { p.ReplyData(mem.Line{9}) }
	pending.ReplyData(mem.Line{9})
	if _, err := r.eng.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if kinds[3] != RespData {
		t.Fatalf("core 3 got %v, want data", kinds[3])
	}
	if kinds[2] != RespNack {
		t.Fatalf("core 2 got %v, want forced nack on dequeue", kinds[2])
	}
	if kinds[1] != RespData {
		t.Fatalf("core 1 got %v: queue stranded behind the forced nack", kinds[1])
	}
	if r.dir.Busy(hot) {
		t.Fatal("line busy after queue drained")
	}
}

// TestDirectoryPanicNamesCycleLine: a protocol-invariant panic in the
// directory carries the cycle and line, so the message alone locates
// it.
func TestDirectoryPanicNamesCycleLine(t *testing.T) {
	r := newRig(1)
	r.request(t, true, 0x80, 0)
	now := r.eng.Now()
	defer func() {
		want := fmt.Sprintf("coherence: cycle %d line 0x80: unblock on non-busy line", now)
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("panic = %q, want %q", got, want)
		}
	}()
	r.dir.Unblock(0x88) // a word inside the idle line
}
