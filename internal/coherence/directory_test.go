package coherence

import (
	"fmt"
	"strings"
	"testing"

	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
)

// fakeCore lets tests script probe responses.
type fakeCore struct {
	onProbe func(p Probe)
	probes  []Probe
}

func (f *fakeCore) HandleProbe(p Probe) {
	f.probes = append(f.probes, p)
	if f.onProbe != nil {
		f.onProbe(p)
	}
}

type rig struct {
	eng   *sim.Engine
	net   *network.Network
	memry *mem.Memory
	dir   *Directory
	cores []*fakeCore
}

func newRig(n int) *rig {
	r := &rig{eng: new(sim.Engine), memry: mem.NewMemory()}
	r.net = network.New(r.eng, 1)
	r.dir = NewDirectory(r.eng, r.net, r.memry, Config{LLCLatency: 30, DRAMLatency: 100})
	var cores []Core
	for i := 0; i < n; i++ {
		fc := &fakeCore{}
		r.cores = append(r.cores, fc)
		cores = append(cores, fc)
	}
	r.dir.AttachCores(cores)
	return r
}

// send runs fn one control-message hop from now, as a core's request or
// Unblock reaches the directory.
func (r *rig) send(fn func()) { r.net.SendControlMsg(sim.Func(fn)) }

// request issues GetS/GetX from core id and runs the sim until the
// response arrives, returning it. It sends Unblock on RespData like a
// real core would.
func (r *rig) request(t *testing.T, isX bool, line mem.Addr, id int) Resp {
	t.Helper()
	var got *Resp
	handler := RespFunc(func(resp Resp) {
		got = &resp
		if resp.Kind == RespData {
			r.send(func() { r.dir.Unblock(line) })
		}
	})
	req := ReqInfo{ID: id}
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

func TestColdGetSGrantsExclusive(t *testing.T) {
	r := newRig(2)
	r.memry.WriteWord(0x40, 7)
	resp := r.request(t, false, 0x40, 0)
	if resp.Kind != RespData || !resp.Excl || resp.Data[0] != 7 {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0x40)
	if st != "E" || owner != 0 {
		t.Fatalf("dir state %s owner %d", st, owner)
	}
	if r.dir.TotalStats().DRAMFills != 1 {
		t.Fatal("expected one DRAM fill")
	}
	// Second touch: no new DRAM fill.
	r.cores[0].onProbe = func(p Probe) { p.ReplyData(mem.Line{7}) }
	r.request(t, false, 0x40, 1)
	if r.dir.TotalStats().DRAMFills != 1 {
		t.Fatal("unexpected second DRAM fill")
	}
}

func TestGetSForwardsToOwnerAndDowngrades(t *testing.T) {
	r := newRig(2)
	r.request(t, true, 0x80, 0) // core 0 becomes owner
	r.cores[0].onProbe = func(p Probe) {
		if p.Kind != FwdGetS || p.Line != mem.Addr(0x80) {
			t.Fatalf("probe = %+v", p)
		}
		p.ReplyData(mem.Line{42}) // owner supplies dirty data
	}
	resp := r.request(t, false, 0x80, 1)
	if resp.Kind != RespData || resp.Excl || resp.Data[0] != 42 {
		t.Fatalf("resp = %+v", resp)
	}
	st, _, sharers := r.dir.StateOf(0x80)
	if st != "S" || sharers != 0b11 {
		t.Fatalf("dir %s sharers %b", st, sharers)
	}
	if r.memry.ReadWord(0x80) != 42 {
		t.Fatal("memory not refreshed by owner data")
	}
}

func TestGetXOwnershipTransfer(t *testing.T) {
	r := newRig(2)
	r.request(t, true, 0x80, 0)
	r.cores[0].onProbe = func(p Probe) {
		if p.Kind != FwdGetX {
			t.Fatalf("probe kind %v", p.Kind)
		}
		p.ReplyData(mem.Line{9})
	}
	resp := r.request(t, true, 0x80, 1)
	if resp.Kind != RespData || !resp.Excl || resp.Data[0] != 9 {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0x80)
	if st != "E" || owner != 1 {
		t.Fatalf("dir %s owner %d", st, owner)
	}
	if r.memry.ReadWord(0x80) != 9 {
		t.Fatal("memory not refreshed on transfer")
	}
}

func TestSilentDropServedFromMemory(t *testing.T) {
	r := newRig(2)
	r.memry.WriteWord(0xc0, 5)
	r.request(t, true, 0xc0, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyNoData() } // dropped (abort)
	resp := r.request(t, false, 0xc0, 1)
	if resp.Kind != RespData || !resp.Excl || resp.Data[0] != 5 {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0xc0)
	if st != "E" || owner != 1 {
		t.Fatalf("dir %s owner %d", st, owner)
	}
}

func TestSpecRespLeavesStateUnchanged(t *testing.T) {
	r := newRig(2)
	r.request(t, true, 0x100, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplySpec(mem.Line{13}, 16) }
	resp := r.request(t, false, 0x100, 1)
	if resp.Kind != RespSpec || resp.Data[0] != 13 || resp.PiC != 16 {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0x100)
	if st != "E" || owner != 0 {
		t.Fatalf("ownership moved: %s owner %d", st, owner)
	}
	if r.dir.Busy(0x100) {
		t.Fatal("line still busy after spec cancel")
	}
	if r.dir.TotalStats().SpecCancels != 1 {
		t.Fatal("spec cancel not counted")
	}
}

func TestNack(t *testing.T) {
	r := newRig(2)
	r.request(t, true, 0x140, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyNack() }
	resp := r.request(t, true, 0x140, 1)
	if resp.Kind != RespNack {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0x140)
	if st != "E" || owner != 0 {
		t.Fatal("nack changed ownership")
	}
	if r.dir.Busy(0x140) {
		t.Fatal("line busy after nack")
	}
}

func TestGetXInvalidatesSharers(t *testing.T) {
	r := newRig(4)
	// Build S state with cores 0,1,2.
	r.request(t, false, 0x180, 0)
	r.cores[0].onProbe = func(p Probe) {
		if p.Kind == FwdGetS {
			p.ReplyData(mem.Line{3})
		} else {
			p.ReplyData(mem.Line{})
		}
	}
	r.request(t, false, 0x180, 1)
	r.request(t, false, 0x180, 2)
	st, _, sharers := r.dir.StateOf(0x180)
	if st != "S" || sharers != 0b111 {
		t.Fatalf("setup: %s %b", st, sharers)
	}
	for _, c := range r.cores[1:3] {
		c.onProbe = func(p Probe) {
			if p.Kind != InvProbe {
				t.Fatalf("want Inv, got %v", p.Kind)
			}
			p.ReplyData(mem.Line{})
		}
	}
	resp := r.request(t, true, 0x180, 3)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0x180)
	if st != "E" || owner != 3 {
		t.Fatalf("dir %s owner %d", st, owner)
	}
	if len(r.cores[1].probes) != 1 || len(r.cores[2].probes) != 1 || len(r.cores[3].probes) != 0 {
		t.Fatal("wrong inv fan-out")
	}
}

func TestUpgradeSkipsRequester(t *testing.T) {
	r := newRig(2)
	r.request(t, false, 0x1c0, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyData(mem.Line{1}) }
	r.request(t, false, 0x1c0, 1)
	// Core 1 upgrades; only core 0 gets an Inv.
	r.cores[0].probes = nil
	resp := r.request(t, true, 0x1c0, 1)
	if resp.Kind != RespData || !resp.Excl {
		t.Fatalf("resp = %+v", resp)
	}
	if len(r.cores[0].probes) != 1 || r.cores[0].probes[0].Kind != InvProbe {
		t.Fatalf("core0 probes = %+v", r.cores[0].probes)
	}
	if len(r.cores[1].probes) != 0 {
		t.Fatal("requester probed itself")
	}
}

// TestSharerSpecReplyToInvFails: a sharer answering an invalidation
// with speculative data breaks the protocol (sharers always honor
// invalidations), so the directory fails the run, naming cycle and line.
func TestSharerSpecReplyToInvFails(t *testing.T) {
	r := newRig(3)
	r.request(t, false, 0x200, 0)
	r.cores[0].onProbe = func(p Probe) {
		if p.Kind == FwdGetS {
			p.ReplyData(mem.Line{77})
		} else {
			p.ReplySpec(mem.Line{77}, 20)
		}
	}
	r.request(t, false, 0x200, 1)
	r.cores[1].onProbe = func(p Probe) { p.ReplyData(mem.Line{}) }
	defer func() {
		want := "a sharer answered an invalidation with speculative data"
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) || !strings.Contains(got, "line 0x200") {
			t.Fatalf("panic = %q, want one naming line 0x200 and %q", got, want)
		}
	}()
	r.request(t, true, 0x200, 2)
}

func TestSharerNackWins(t *testing.T) {
	r := newRig(3)
	r.request(t, false, 0x240, 0)
	r.cores[0].onProbe = func(p Probe) {
		if p.Kind == FwdGetS {
			p.ReplyData(mem.Line{1})
		} else {
			p.ReplyNack()
		}
	}
	r.request(t, false, 0x240, 1)
	r.cores[1].onProbe = func(p Probe) { p.ReplyData(mem.Line{}) }
	resp := r.request(t, true, 0x240, 2)
	if resp.Kind != RespNack {
		t.Fatalf("resp = %+v, want nack to dominate", resp)
	}
}

func TestBusyLineQueuesRequests(t *testing.T) {
	r := newRig(3)
	r.request(t, true, 0x280, 0)
	// Core 0 delays its probe reply; meanwhile a second request arrives.
	var pending Probe
	r.cores[0].onProbe = func(p Probe) { pending = p }
	order := []int{}
	mk := func(id int) RespFunc {
		return func(resp Resp) {
			order = append(order, id)
			if resp.Kind == RespData {
				r.send(func() { r.dir.Unblock(0x280) })
			}
		}
	}
	r.send(func() { r.dir.GetX(0x280, ReqInfo{ID: 1}, mk(1)) })
	r.eng.Run(0)
	if !r.dir.Busy(0x280) {
		t.Fatal("line should be busy while probe outstanding")
	}
	r.send(func() { r.dir.GetX(0x280, ReqInfo{ID: 2}, mk(2)) })
	r.eng.Run(0)
	// Release the first; core 1 then owns, its probe must be answered too.
	r.cores[0].onProbe = nil
	cur := pending
	r.cores[1].onProbe = func(p Probe) { p.ReplyData(mem.Line{}) }
	cur.ReplyData(mem.Line{5})
	if _, err := r.eng.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order = %v", order)
	}
	st, owner, _ := r.dir.StateOf(0x280)
	if st != "E" || owner != 2 {
		t.Fatalf("final dir %s owner %d", st, owner)
	}
}

// TestReqQueueReusesSlots: the request queue stays FIFO while its head
// wraps and while it grows, and a queue that keeps the same backlog
// reuses its slots instead of allocating.
func TestReqQueueReusesSlots(t *testing.T) {
	var q reqQueue
	var model []mem.Addr
	next := mem.Addr(0)
	for step := 0; step < 2000; step++ {
		if step%3 != 2 || len(model) == 0 {
			q.push(queuedReq{line: next})
			model = append(model, next)
			next++
		} else {
			if got := q.pop().line; got != model[0] {
				t.Fatalf("step %d: popped %v, want %v", step, got, model[0])
			}
			model = model[1:]
		}
		if q.n != len(model) {
			t.Fatalf("step %d: %d queued, want %d", step, q.n, len(model))
		}
	}
	for q.n > 5 {
		q.pop()
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.push(queuedReq{})
			q.pop()
		}
	}); n != 0 {
		t.Fatalf("steady-depth queue allocated %v times per run", n)
	}
}

func TestWriteBack(t *testing.T) {
	r := newRig(1)
	r.request(t, true, 0x2c0, 0)
	r.dir.WriteBack(0x2c0, mem.Line{99}, 0, nil)
	if r.memry.ReadWord(0x2c0) != 99 {
		t.Fatal("memory not written")
	}
	st, _, _ := r.dir.StateOf(0x2c0)
	if st != "I" {
		t.Fatalf("dir state %s after WB", st)
	}
}

func TestWriteBackCancelled(t *testing.T) {
	r := newRig(1)
	r.request(t, true, 0x300, 0)
	cancelled := true
	r.dir.WriteBack(0x300, mem.Line{99}, 0, &cancelled)
	if r.memry.ReadWord(0x300) == 99 {
		t.Fatal("cancelled WB applied")
	}
	st, owner, _ := r.dir.StateOf(0x300)
	if st != "E" || owner != 0 {
		t.Fatal("cancelled WB changed state")
	}
}

func TestPiCValidity(t *testing.T) {
	if PiCNone.Valid() || PiCPower.Valid() {
		t.Fatal("sentinels must be invalid")
	}
	if !PiCInit.Valid() || !PiC(0).Valid() || !PiCMax.Valid() {
		t.Fatal("range values must be valid")
	}
	if PiC(31).Valid() {
		t.Fatal("31 is out of the 0..30 usable range")
	}
}

func TestWriteBackDataKeepsOwnership(t *testing.T) {
	r := newRig(1)
	r.request(t, true, 0x340, 0) // core 0 owns the line
	r.dir.WriteBackData(0x340, mem.Line{55})
	if r.memry.ReadWord(0x340) != 55 {
		t.Fatal("memory image not refreshed")
	}
	st, owner, _ := r.dir.StateOf(0x340)
	if st != "E" || owner != 0 {
		t.Fatalf("ownership changed: %s owner %d", st, owner)
	}
}

func TestGetXForwardNackAndSpec(t *testing.T) {
	r := newRig(2)
	r.request(t, true, 0x400, 0)
	// Owner nacks a write request.
	r.cores[0].onProbe = func(p Probe) { p.ReplyNack() }
	if resp := r.request(t, true, 0x400, 1); resp.Kind != RespNack {
		t.Fatalf("resp = %+v", resp)
	}
	// Owner forwards speculatively on a write request.
	r.cores[0].onProbe = func(p Probe) { p.ReplySpec(mem.Line{7}, 12) }
	resp := r.request(t, true, 0x400, 1)
	if resp.Kind != RespSpec || resp.Data[0] != 7 || resp.PiC != 12 {
		t.Fatalf("resp = %+v", resp)
	}
	st, owner, _ := r.dir.StateOf(0x400)
	if st != "E" || owner != 0 {
		t.Fatal("spec response moved ownership")
	}
}

func TestGetXNoDataFallsBackToMemory(t *testing.T) {
	r := newRig(2)
	r.memry.WriteWord(0x440, 31)
	r.request(t, true, 0x440, 0)
	r.cores[0].onProbe = func(p Probe) { p.ReplyNoData() }
	resp := r.request(t, true, 0x440, 1)
	if resp.Kind != RespData || !resp.Excl || resp.Data[0] != 31 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestOwnerReRequestAfterSilentDrop(t *testing.T) {
	// A core that silently dropped its exclusive line re-requests it: the
	// directory serves memory and keeps it as owner.
	r := newRig(1)
	r.memry.WriteWord(0x480, 9)
	r.request(t, true, 0x480, 0)
	resp := r.request(t, true, 0x480, 0) // no probe must be sent
	if resp.Kind != RespData || resp.Data[0] != 9 {
		t.Fatalf("resp = %+v", resp)
	}
	if len(r.cores[0].probes) != 0 {
		t.Fatal("directory probed the requester itself")
	}
}

func TestProbeKindStrings(t *testing.T) {
	if FwdGetS.String() != "FwdGetS" || FwdGetX.String() != "FwdGetX" || InvProbe.String() != "Inv" {
		t.Fatal("probe kind strings wrong")
	}
	if ProbeKind(9).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}
