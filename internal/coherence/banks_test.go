package coherence

import (
	"testing"

	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
)

// Directed tests for the address-sharded directory: bank selection,
// cross-bank independence, the per-bank ForceNack seam, and the
// queue-unstranding regression from the fault-seam PR. The tests
// exercise the sharded state machine itself; whole-machine bank-count
// equivalence is covered by the difftest bank-equivalence layer.

func newBankedRig(n, banks int) *rig {
	r := &rig{eng: new(sim.Engine), memry: mem.NewMemory()}
	r.net = network.New(r.eng, 1)
	r.dir = NewDirectory(r.eng, r.net, r.memry, Config{LLCLatency: 30, DRAMLatency: 100, Banks: banks})
	var cores []Core
	for i := 0; i < n; i++ {
		fc := &fakeCore{}
		r.cores = append(r.cores, fc)
		cores = append(cores, fc)
	}
	r.dir.AttachCores(cores)
	return r
}

// requestInfo is rig.request with a caller-supplied ReqInfo (the fault
// seam only fires for transactional requests).
func (r *rig) requestInfo(t *testing.T, isX bool, line mem.Addr, req ReqInfo) Resp {
	t.Helper()
	var got *Resp
	handler := RespFunc(func(resp Resp) {
		got = &resp
		if resp.Kind == RespData {
			r.net.SendControl(func() { r.dir.Unblock(line) })
		}
	})
	if isX {
		r.net.SendControl(func() { r.dir.GetX(line, req, handler) })
	} else {
		r.net.SendControl(func() { r.dir.GetS(line, req, handler) })
	}
	if _, err := r.eng.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no response")
	}
	return *got
}

func TestBankOfMatchesMemoryShard(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 16, 256} {
		for _, a := range []mem.Addr{0x0, 0x40, 0x80, 0x1000, 0xdeadc0} {
			if got, want := BankOf(a, banks), mem.LineShard(a, banks); got != want {
				t.Fatalf("BankOf(%#x, %d) = %d, LineShard = %d", a, banks, got, want)
			}
		}
	}
	// Same line, different words: one bank.
	if BankOf(0x40, 4) != BankOf(0x78, 4) {
		t.Fatal("words of one line landed in different banks")
	}
	// Consecutive lines interleave round-robin.
	for i := 0; i < 8; i++ {
		if got := BankOf(mem.Addr(i*mem.LineSize), 4); got != i%4 {
			t.Fatalf("line %d in bank %d, want %d", i, got, i%4)
		}
	}
}

func TestBankCountValidation(t *testing.T) {
	for _, bad := range []int{-1, 3, 5, 2 * MaxBanks} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("banks=%d accepted", bad)
				}
			}()
			newBankedRig(1, bad)
		}()
	}
	if got := newBankedRig(1, 0).dir.NumBanks(); got != 1 {
		t.Fatalf("banks=0 built %d banks, want 1", got)
	}
}

// TestCrossBankIndependence pins that a busy line in one bank does not
// block service in another: while bank 1's line waits on an owner
// probe, a request for a bank 2 line completes start to finish.
func TestCrossBankIndependence(t *testing.T) {
	r := newBankedRig(3, 4)
	lineA := mem.Addr(0x40) // bank 1
	lineB := mem.Addr(0x80) // bank 2
	if r.dir.BankIndex(lineA) != 1 || r.dir.BankIndex(lineB) != 2 {
		t.Fatal("address plan broke")
	}
	r.request(t, true, lineA, 0) // core 0 owns A
	// Core 0 holds the forward probe: bank 1's line stays busy.
	var pending Probe
	r.cores[0].onProbe = func(p Probe) { pending = p }
	r.net.SendControl(func() {
		r.dir.GetX(lineA, ReqInfo{ID: 1}, RespFunc(func(resp Resp) {
			if resp.Kind == RespData {
				r.net.SendControl(func() { r.dir.Unblock(lineA) })
			}
		}))
	})
	r.eng.Run(0)
	if !r.dir.Busy(lineA) {
		t.Fatal("bank 1 line should be busy")
	}
	// Bank 2 serves core 2 while bank 1 is stuck.
	resp := r.request(t, true, lineB, 2)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("bank 2 resp = %+v", resp)
	}
	if !r.dir.Busy(lineA) {
		t.Fatal("bank 2 service released bank 1's line")
	}
	pending.ReplyData(mem.Line{1})
	r.eng.Run(1_000_000)
	if r.dir.Busy(lineA) {
		t.Fatal("bank 1 line stuck after probe reply")
	}
	// Per-bank accounting: each bank saw only its own line.
	if r.dir.BankLines(1) != 1 || r.dir.BankLines(2) != 1 || r.dir.BankLines(0) != 0 {
		t.Fatalf("bank line counts: %d/%d/%d", r.dir.BankLines(0), r.dir.BankLines(1), r.dir.BankLines(2))
	}
}

// TestCrossBankInvalidationCollect builds S state on a bank 3 line and
// upgrades it while a second bank's line is mid-flight: the
// invalidation collect must gather every ack without touching the
// other bank.
func TestCrossBankInvalidationCollect(t *testing.T) {
	r := newBankedRig(4, 4)
	hot := mem.Addr(0xc0) // bank 3
	r.request(t, false, hot, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyData(mem.Line{3}) }
	r.request(t, false, hot, 1)
	r.request(t, false, hot, 2)
	st, _, sharers := r.dir.StateOf(hot)
	if st != "S" || sharers != 0b111 {
		t.Fatalf("setup: %s %b", st, sharers)
	}
	// Park a request on bank 1 so two banks have in-flight work.
	r.request(t, true, 0x40, 3)
	var parked Probe
	r.cores[3].onProbe = func(p Probe) { parked = p }
	r.net.SendControl(func() { r.dir.GetX(0x40, ReqInfo{ID: 0}, RespFunc(func(Resp) {})) })
	r.eng.Run(0)

	for _, c := range r.cores[1:3] {
		c.onProbe = func(p Probe) {
			if p.Kind != InvProbe {
				t.Fatalf("want Inv, got %v", p.Kind)
			}
			p.ReplyData(mem.Line{})
		}
	}
	resp := r.request(t, true, hot, 3)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(hot)
	if st != "E" || owner != 3 {
		t.Fatalf("dir %s owner %d", st, owner)
	}
	if !r.dir.Busy(0x40) {
		t.Fatal("collect on bank 3 disturbed bank 1's busy line")
	}
	// Cores 0, 1 and 2 all shared the line: three invalidations, all
	// accounted to bank 3.
	if r.dir.BankStats(3).Invs != 3 {
		t.Fatalf("bank 3 counted %d invalidations, want 3", r.dir.BankStats(3).Invs)
	}
	parked.ReplyData(mem.Line{})
	r.eng.Run(1_000_000)
}

// TestWriteBackRacesForwardAcrossBanks: a core owning lines in two
// banks writes one back while the other has a forward in flight — the
// writeback lands (bank 2) without perturbing the pending forward
// (bank 1), which then resolves normally.
func TestWriteBackRacesForwardAcrossBanks(t *testing.T) {
	r := newBankedRig(2, 4)
	fwdLine := mem.Addr(0x40) // bank 1
	wbLine := mem.Addr(0x80)  // bank 2
	r.request(t, true, fwdLine, 0)
	r.request(t, true, wbLine, 0)
	var pending Probe
	r.cores[0].onProbe = func(p Probe) { pending = p }
	var got *Resp
	r.net.SendControl(func() {
		r.dir.GetX(fwdLine, ReqInfo{ID: 1}, RespFunc(func(resp Resp) {
			got = &resp
			r.net.SendControl(func() { r.dir.Unblock(fwdLine) })
		}))
	})
	r.eng.Run(0)
	if !r.dir.Busy(fwdLine) {
		t.Fatal("forward line should be busy")
	}
	// The owner evicts the other bank's line mid-forward.
	r.dir.WriteBack(wbLine, mem.Line{77}, 0, nil)
	if r.memry.ReadWord(wbLine) != 77 {
		t.Fatal("writeback not applied")
	}
	if st, _, _ := r.dir.StateOf(wbLine); st != "I" {
		t.Fatalf("bank 2 line %s after WB", st)
	}
	if !r.dir.Busy(fwdLine) {
		t.Fatal("writeback on bank 2 released bank 1's busy line")
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

// TestBankLocalForceNack arms the fault seam on one bank only: requests
// for that bank's lines bounce, sibling banks are untouched, and — the
// queue-stranding regression — a nacked dequeue must still start the
// next waiter.
func TestBankLocalForceNack(t *testing.T) {
	r := newBankedRig(4, 4)
	hot := mem.Addr(0x140) // bank 1
	r.dir.SetBankForceNack(1, func(req ReqInfo) bool { return req.ID == 2 })

	// Other banks ignore the seam entirely.
	if resp := r.requestInfo(t, true, 0x80, ReqInfo{ID: 2, IsTx: true}); resp.Kind != RespData {
		t.Fatalf("bank 2 resp = %+v", resp)
	}
	// Core 2 bounces on the armed bank even when the line is idle.
	if resp := r.requestInfo(t, true, hot, ReqInfo{ID: 2, IsTx: true}); resp.Kind != RespNack {
		t.Fatalf("idle-line forced nack: resp = %+v", resp)
	}
	if r.dir.Busy(hot) {
		t.Fatal("bounced request left the line busy")
	}
	if r.dir.BankStats(1).Nacks == 0 {
		t.Fatal("bank 1 did not count the forced nack")
	}

	// Queue stranding: core 0 owns the line and holds core 3's forward
	// probe while cores 2 and 1 queue behind it. When the probe resolves,
	// core 2's dequeued request is force-nacked — core 1 behind it must
	// still be served, not stranded.
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
				r.net.SendControl(func() { r.dir.Unblock(hot) })
			}
		}
	}
	r.net.SendControl(func() { r.dir.GetX(hot, ReqInfo{ID: 3, IsTx: true}, mk(3)) })
	r.eng.Run(0)
	if !r.dir.Busy(hot) {
		t.Fatal("setup: forward should hold the line busy")
	}
	r.net.SendControl(func() { r.dir.GetX(hot, ReqInfo{ID: 2, IsTx: true}, mk(2)) })
	r.eng.Run(0)
	r.net.SendControl(func() { r.dir.GetX(hot, ReqInfo{ID: 1, IsTx: true}, mk(1)) })
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

// TestWideSharerSetInvalidation exercises the multi-word sharer set
// (cores above bit 63): 70 readers share a line, an upgrade must
// invalidate every one of them exactly once.
func TestWideSharerSetInvalidation(t *testing.T) {
	const n = 70
	r := newBankedRig(n, 4)
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
	if invs := r.dir.BankStats(1).Invs; invs != n-1 {
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

// TestGlobalForceNackStillCoversAllBanks: the machine-level seam
// (Directory.ForceNack) applies to every bank when no bank-local
// override is set.
func TestGlobalForceNackStillCoversAllBanks(t *testing.T) {
	r := newBankedRig(2, 4)
	r.dir.ForceNack = func(req ReqInfo) bool { return true }
	for _, line := range []mem.Addr{0x0, 0x40, 0x80, 0xc0} {
		if resp := r.requestInfo(t, true, line, ReqInfo{ID: 0, IsTx: true}); resp.Kind != RespNack {
			t.Fatalf("bank %d: resp = %+v", r.dir.BankIndex(line), resp)
		}
	}
	var nacks uint64
	for b := 0; b < 4; b++ {
		nacks += r.dir.BankStats(b).Nacks
	}
	if nacks != 4 || r.dir.TotalStats().Nacks != 4 {
		t.Fatalf("nack accounting: per-bank %d, total %d", nacks, r.dir.TotalStats().Nacks)
	}
}
