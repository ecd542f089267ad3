package coherence

import (
	"fmt"

	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
)

// MaxCores is the widest sharer set the directory tracks (sharerSet is a
// fixed 256-bit set so line metadata stays pointer-free and poolable).
const MaxCores = 256

// MaxBanks caps the bank count at one bank per core of the widest
// machine (MaxCores).
const MaxBanks = 256

// Config holds the directory/memory timing parameters (Table I) and the
// bank layout.
type Config struct {
	// LLCLatency is the shared-LLC/directory access latency charged on
	// every request that reaches the directory.
	LLCLatency uint64
	// DRAMLatency is charged the first time a line is touched (cold miss
	// filled from main memory).
	DRAMLatency uint64

	// Banks is the number of independent address-interleaved directory
	// banks (power of two, <= MaxBanks; 0 means 1). Each bank owns the
	// full per-line state — MESI entry, blocking queue, in-flight flow
	// pools, NACK seam and stats shard — for the lines hashing to it.
	Banks int
}

// Stats counts directory activity.
type Stats struct {
	GetS        uint64
	GetX        uint64
	Forwards    uint64 // probes sent to exclusive owners
	Invs        uint64 // invalidation probes sent to sharers
	SpecCancels uint64 // requests cancelled by a speculative forwarding
	Nacks       uint64 // requests nacked by their responder
	Writebacks  uint64
	DRAMFills   uint64
}

// add folds o into s.
func (s *Stats) add(o *Stats) {
	s.GetS += o.GetS
	s.GetX += o.GetX
	s.Forwards += o.Forwards
	s.Invs += o.Invs
	s.SpecCancels += o.SpecCancels
	s.Nacks += o.Nacks
	s.Writebacks += o.Writebacks
	s.DRAMFills += o.DRAMFills
}

// BankOf returns the bank in [0, banks) owning the line containing a.
// banks must be a power of two <= MaxBanks. It is mem.LineShard:
// consecutive lines round-robin across the banks.
func BankOf(a mem.Addr, banks int) int { return mem.LineShard(a, banks) }

type dirState uint8

const (
	dirI dirState = iota
	dirS
	dirE // exclusive at owner (cache side may be E or M)
)

// sharerSet is a fixed bitset over core IDs (up to MaxCores).
type sharerSet [MaxCores / 64]uint64

func (s *sharerSet) set(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s *sharerSet) clear(i int)    { s[i>>6] &^= 1 << uint(i&63) }
func (s *sharerSet) has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

func (s *sharerSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// onlyMember reports whether no core other than id is in the set.
func (s *sharerSet) onlyMember(id int) bool {
	for w, word := range s {
		if w == id>>6 {
			word &^= 1 << uint(id&63)
		}
		if word != 0 {
			return false
		}
	}
	return true
}

// queuedReq is one request parked behind a busy line.
type queuedReq struct {
	isX  bool
	line mem.Addr
	req  ReqInfo
	resp RespHandler
}

type dirLine struct {
	state   dirState
	owner   int
	sharers sharerSet
	busy    bool
	queue   []queuedReq
	inLLC   bool
}

// dirBank is one address-interleaved home-node bank. It owns every line
// hashing to it — MESI state, the blocking request queue, the in-flight
// flow objects and their free lists, and a Stats shard.
type dirBank struct {
	d     *Directory
	lines map[mem.Addr]*dirLine
	stats Stats

	// Free lists for the pooled flow/message objects below. Every
	// request hop used to capture its state in a fresh closure; the
	// pools plus sim.Runner dispatch make the whole request path
	// allocation-free in steady state.
	freeMsgs []*dirMsg
	freeFwds []*fwdFlow
	freeInvC []*invCollect
	freeInvT []*invTarget

	// forceNack, when non-nil, overrides the Directory-wide ForceNack
	// seam for this bank only (fault plans with a bank= selector).
	forceNack func(req ReqInfo) bool
}

// Directory is the home node for every line: MESI state, the LLC/memory
// data image, and the blocking request queue per line, sharded into
// independent address-interleaved banks. The public API is unchanged
// from the single-bank directory — every call dispatches on the line
// address — and a 1-bank directory behaves exactly as before.
type Directory struct {
	eng    *sim.Engine
	net    *network.Network
	memory *mem.Memory
	cores  []Core
	cfg    Config
	banks  []*dirBank

	// ForceNack, when non-nil, is consulted for every transactional
	// request before it is admitted; returning true bounces the request
	// with RespNack without touching line state. The fault injector uses
	// it to model an overloaded home node. Non-transactional requests are
	// never force-nacked: the machine's non-speculative paths do not
	// retry nacks, and sparing them preserves forward progress. A
	// per-bank override installed with SetBankForceNack takes precedence
	// for its bank.
	ForceNack func(req ReqInfo) bool
}

// NewDirectory builds the home node. cores may be populated later via
// AttachCores (the machine wires cores and directory together).
func NewDirectory(eng *sim.Engine, net *network.Network, memory *mem.Memory, cfg Config) *Directory {
	nbanks := cfg.Banks
	if nbanks == 0 {
		nbanks = 1
	}
	if nbanks < 0 || nbanks > MaxBanks || nbanks&(nbanks-1) != 0 {
		panic(fmt.Sprintf("coherence: bank count %d not a power of two in [1, %d]", nbanks, MaxBanks))
	}
	d := &Directory{eng: eng, net: net, memory: memory, cfg: cfg}
	for i := 0; i < nbanks; i++ {
		d.banks = append(d.banks, &dirBank{d: d, lines: make(map[mem.Addr]*dirLine)})
	}
	return d
}

// AttachCores registers the core controllers the directory can probe.
func (d *Directory) AttachCores(cores []Core) {
	if len(cores) > MaxCores {
		panic(fmt.Sprintf("coherence: %d cores exceeds MaxCores=%d", len(cores), MaxCores))
	}
	d.cores = cores
}

// NumBanks returns the bank count.
func (d *Directory) NumBanks() int { return len(d.banks) }

// BankIndex returns the bank owning the line containing a.
func (d *Directory) BankIndex(a mem.Addr) int { return BankOf(a, len(d.banks)) }

// bankFor returns the bank owning the line containing a.
func (d *Directory) bankFor(a mem.Addr) *dirBank { return d.banks[d.BankIndex(a)] }

// SetBankForceNack installs a per-bank override of the ForceNack seam.
// A nil fn removes the override, falling back to the directory-wide
// hook.
func (d *Directory) SetBankForceNack(bank int, fn func(req ReqInfo) bool) {
	d.banks[bank].forceNack = fn
}

// TotalStats sums the per-bank stats shards.
func (d *Directory) TotalStats() Stats {
	var s Stats
	for _, b := range d.banks {
		s.add(&b.stats)
	}
	return s
}

// BankStats returns one bank's stats shard.
func (d *Directory) BankStats(bank int) Stats { return d.banks[bank].stats }

// BankLines returns how many distinct lines bank tracks, a cheap
// occupancy measure for the per-bank load reports.
func (d *Directory) BankLines(bank int) int { return len(d.banks[bank].lines) }

func (b *dirBank) line(a mem.Addr) *dirLine {
	a = a.Line()
	l, ok := b.lines[a]
	if !ok {
		l = &dirLine{state: dirI, owner: -1}
		b.lines[a] = l
	}
	return l
}

// accessLatency charges LLC latency plus a DRAM fill on first touch.
func (b *dirBank) accessLatency(l *dirLine) uint64 {
	lat := b.d.cfg.LLCLatency
	if !l.inLLC {
		l.inLLC = true
		lat += b.d.cfg.DRAMLatency
		b.stats.DRAMFills++
	}
	return lat
}

// ---------- pooled messages ----------

// dirMsg ops. Each value is one kind of directory-side event: a
// response delivery at the requester, a queued-request restart, a
// post-latency state-transition arm, or a requester's unblock. Probe
// deliveries and flow-internal cancellations need no dirMsg: the flow
// objects (fwdFlow, invTarget) are their own phase-switched hop
// payloads.
const (
	mResp        uint8 = iota // deliver resp at the requester
	mStart                    // re-issue a queued GetS/GetX
	mGrantExcl                // serve memory, grant exclusive
	mGrantShared              // serve memory, add sharer
	mFwd                      // forward to the exclusive owner
	mCollect                  // start the invalidation collection
	mUnblockLine              // requester's Unblock message (by address)
)

// dirMsg is the one pooled event payload for directory flows that need
// no per-flow identity; op selects the behavior, the other fields are a
// union over the ops. Each message belongs to (and returns to) the pool
// of the bank that owns its line.
type dirMsg struct {
	b    *dirBank
	op   uint8
	isX  bool
	core int
	line mem.Addr
	l    *dirLine
	req  ReqInfo
	h    RespHandler
	resp Resp
}

func (b *dirBank) newMsg() *dirMsg {
	if n := len(b.freeMsgs); n > 0 {
		m := b.freeMsgs[n-1]
		b.freeMsgs[n-1] = nil
		b.freeMsgs = b.freeMsgs[:n-1]
		return m
	}
	return &dirMsg{b: b}
}

func (b *dirBank) freeMsg(m *dirMsg) {
	m.h = nil
	m.l = nil
	m.resp = Resp{}
	b.freeMsgs = append(b.freeMsgs, m)
}

// sendResp schedules a response delivery at the requester over the
// given message class.
func (b *dirBank) sendResp(data bool, h RespHandler, r Resp) {
	m := b.newMsg()
	m.op = mResp
	m.h = h
	m.resp = r
	if data {
		b.d.net.SendDataMsg(m)
	} else {
		b.d.net.SendControlMsg(m)
	}
}

func (m *dirMsg) Run() {
	b := m.b
	switch m.op {
	case mResp:
		h, r := m.h, m.resp
		b.freeMsg(m)
		h.HandleResp(r)
	case mStart:
		isX, line, req, h := m.isX, m.line, m.req, m.h
		b.freeMsg(m)
		if isX {
			b.getX(line, req, h)
		} else {
			b.getS(line, req, h)
		}
	case mGrantExcl:
		line, l, req, h := m.line, m.l, m.req, m.h
		b.freeMsg(m)
		data := b.d.memory.ReadLine(line)
		l.state = dirE
		l.owner = req.ID
		l.sharers = sharerSet{}
		b.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: true})
	case mGrantShared:
		line, l, req, h := m.line, m.l, m.req, m.h
		b.freeMsg(m)
		data := b.d.memory.ReadLine(line)
		l.sharers.set(req.ID)
		b.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: false})
	case mFwd:
		f := b.newFwd()
		f.line = m.line
		f.l = m.l
		f.req = m.req
		f.h = m.h
		f.owner = m.core
		f.isX = m.isX
		f.phase = fwdDeliver
		b.freeMsg(m)
		b.d.net.SendControlMsg(f)
	case mCollect:
		line, l, req, h := m.line, m.l, m.req, m.h
		b.freeMsg(m)
		b.collectInvs(line, l, req, h)
	case mUnblockLine:
		line := m.line
		b.freeMsg(m)
		b.unblock(b.line(line))
	default:
		panic("coherence: unknown dirMsg op")
	}
}

// fwdFlow is the continuation of a request forwarded to an exclusive
// owner: it is the probe's own delivery payload (fwdDeliver phase
// invokes HandleProbe at the owner), the probe's replier, and the
// payload of every second directory-side hop. The spec-cancel and nack
// replies ship the flow itself back to the bank and do their
// bookkeeping on arrival, one control hop later.
type fwdFlow struct {
	b     *dirBank
	line  mem.Addr
	l     *dirLine
	req   ReqInfo
	h     RespHandler
	owner int
	isX   bool
	phase uint8
	data  mem.Line
}

const (
	fwdMemS       uint8 = iota // GetS data reply: refresh memory, go Shared
	fwdMemX                    // GetX data reply: refresh memory, move ownership
	fwdNoData                  // owner dropped the line: serve memory, grant E
	fwdDeliver                 // deliver the probe at the exclusive owner
	fwdCancelSpec              // bank side of a spec-forwarded cancel: count, unblock
	fwdCancelNack              // bank side of a nack: count, unblock
)

func (b *dirBank) newFwd() *fwdFlow {
	if n := len(b.freeFwds); n > 0 {
		f := b.freeFwds[n-1]
		b.freeFwds[n-1] = nil
		b.freeFwds = b.freeFwds[:n-1]
		return f
	}
	return &fwdFlow{b: b}
}

func (b *dirBank) freeFwd(f *fwdFlow) {
	f.h = nil
	f.l = nil
	b.freeFwds = append(b.freeFwds, f)
}

func (f *fwdFlow) ReplyData(data mem.Line) {
	b := f.b
	if f.isX {
		// Ownership moves; memory refreshed so the (possibly
		// transactional) new owner can be silently invalidated.
		b.sendResp(true, f.h, Resp{Kind: RespData, Data: data, Excl: true})
		f.phase = fwdMemX
	} else {
		// Owner keeps a Shared copy; data to requester and to memory.
		b.sendResp(true, f.h, Resp{Kind: RespData, Data: data, Excl: false})
		f.phase = fwdMemS
	}
	f.data = data
	b.d.net.SendDataMsg(f)
}

func (f *fwdFlow) ReplyNoData() {
	f.phase = fwdNoData
	f.b.d.net.SendControlMsg(f)
}

func (f *fwdFlow) ReplySpec(data mem.Line, pic PiC) {
	b := f.b
	b.sendResp(true, f.h, Resp{Kind: RespSpec, Data: data, PiC: pic})
	f.phase = fwdCancelSpec // cancel at directory
	b.d.net.SendControlMsg(f)
}

func (f *fwdFlow) ReplyNack() {
	b := f.b
	b.sendResp(false, f.h, Resp{Kind: RespNack})
	f.phase = fwdCancelNack
	b.d.net.SendControlMsg(f)
}

func (f *fwdFlow) Run() {
	b := f.b
	switch f.phase {
	case fwdMemS:
		b.d.memory.WriteLine(f.line, f.data)
		f.l.state = dirS
		f.l.sharers = sharerSet{}
		f.l.sharers.set(f.owner)
		f.l.sharers.set(f.req.ID)
		f.l.owner = -1
		// requester's Unblock releases the line
		b.freeFwd(f)
	case fwdMemX:
		b.d.memory.WriteLine(f.line, f.data)
		f.l.state = dirE
		f.l.owner = f.req.ID
		f.l.sharers = sharerSet{}
		b.freeFwd(f)
	case fwdNoData:
		data := b.d.memory.ReadLine(f.line)
		f.l.state = dirE
		f.l.owner = f.req.ID
		f.l.sharers = sharerSet{}
		h := f.h
		b.freeFwd(f)
		b.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: true})
	case fwdDeliver:
		kind := FwdGetS
		if f.isX {
			kind = FwdGetX
		}
		b.d.cores[f.owner].HandleProbe(Probe{Line: f.line, Kind: kind, Req: f.req, Reply: f})
	case fwdCancelSpec:
		b.stats.SpecCancels++
		l := f.l
		b.freeFwd(f)
		b.unblock(l)
	case fwdCancelNack:
		b.stats.Nacks++
		l := f.l
		b.freeFwd(f)
		b.unblock(l)
	default:
		panic("coherence: bad fwdFlow phase")
	}
}

// invCollect aggregates the outcome of the invalidation probes sent on a
// GetX against a Shared line.
type invCollect struct {
	b       *dirBank
	line    mem.Addr
	l       *dirLine
	req     ReqInfo
	h       RespHandler
	pending int
	refused bool
	nacked  bool
	minPiC  PiC
}

func (b *dirBank) newInvC() *invCollect {
	if n := len(b.freeInvC); n > 0 {
		c := b.freeInvC[n-1]
		b.freeInvC[n-1] = nil
		b.freeInvC = b.freeInvC[:n-1]
		return c
	}
	return &invCollect{b: b}
}

func (b *dirBank) freeInvCollect(c *invCollect) {
	c.h = nil
	c.l = nil
	b.freeInvC = append(b.freeInvC, c)
}

func (c *invCollect) done() {
	c.pending--
	if c.pending > 0 {
		return
	}
	b := c.b
	switch {
	case c.nacked:
		b.stats.Nacks++
		b.sendResp(false, c.h, Resp{Kind: RespNack})
		b.unblock(c.l)
	case c.refused:
		b.stats.SpecCancels++
		data := b.d.memory.ReadLine(c.line)
		b.sendResp(true, c.h, Resp{Kind: RespSpec, Data: data, PiC: c.minPiC})
		b.unblock(c.l)
	default:
		data := b.d.memory.ReadLine(c.line)
		c.l.state = dirE
		c.l.owner = c.req.ID
		c.l.sharers = sharerSet{}
		b.sendResp(true, c.h, Resp{Kind: RespData, Data: data, Excl: true})
		// requester's Unblock releases the line
	}
	b.freeInvCollect(c)
}

// invTarget is one sharer's probe delivery payload (invDeliver phase
// invokes HandleProbe at the sharer), its probe replier, and the
// payload of its ack hop back to the directory bank. The reply methods
// only route the ack; all bookkeeping (and the object's recycling)
// happens bank-side in Run.
type invTarget struct {
	c      *invCollect
	target int
	phase  uint8 // invDeliver | invAck
	act    uint8
	pic    PiC
}

const (
	invDeliver uint8 = iota // deliver the invalidation probe at the sharer
	invAck                  // ack arrived back at the bank
)

const (
	ackInv uint8 = iota // invalidated (or already silently dropped)
	ackSpec
	ackNack
)

func (b *dirBank) newInvT(c *invCollect, target int) *invTarget {
	if n := len(b.freeInvT); n > 0 {
		t := b.freeInvT[n-1]
		b.freeInvT[n-1] = nil
		b.freeInvT = b.freeInvT[:n-1]
		t.c = c
		t.target = target
		t.phase = invDeliver
		return t
	}
	return &invTarget{c: c, target: target, phase: invDeliver}
}

// ack routes the reply back to the owning bank.
func (t *invTarget) ack() {
	t.phase = invAck
	t.c.b.d.net.SendControlMsg(t)
}

func (t *invTarget) ReplyData(mem.Line) { // invalidated (clean sharer)
	t.act = ackInv
	t.ack()
}

// already silently dropped
func (t *invTarget) ReplyNoData() { t.ReplyData(mem.Line{}) }

func (t *invTarget) ReplySpec(_ mem.Line, pic PiC) {
	t.act = ackSpec
	t.pic = pic
	t.ack()
}

func (t *invTarget) ReplyNack() {
	t.act = ackNack
	t.ack()
}

func (t *invTarget) Run() {
	if t.phase == invDeliver {
		c := t.c
		c.b.d.cores[t.target].HandleProbe(Probe{Line: c.line, Kind: InvProbe, Req: c.req, Reply: t})
		return
	}
	c, target, act, pic := t.c, t.target, t.act, t.pic
	t.c = nil
	c.b.freeInvT = append(c.b.freeInvT, t)
	switch act {
	case ackInv:
		c.l.sharers.clear(target)
	case ackSpec:
		c.refused = true
		if pic < c.minPiC {
			c.minPiC = pic
		}
	case ackNack:
		c.nacked = true
	}
	c.done()
}

// ---------- request handling ----------

func (b *dirBank) unblock(l *dirLine) {
	if !l.busy {
		panic("coherence: unblock on non-busy line")
	}
	l.busy = false
	b.startNext(l)
}

// startNext pops the next queued request if the line is free. Called
// from unblock and from the force-nack path: a dequeued request that is
// bounced by ForceNack never reaches unblock, and without this the rest
// of the queue would strand until a new request happened to complete.
func (b *dirBank) startNext(l *dirLine) {
	if !l.busy && len(l.queue) > 0 {
		next := l.queue[0]
		l.queue[0] = queuedReq{}
		l.queue = l.queue[1:]
		m := b.newMsg()
		m.op = mStart
		m.isX = next.isX
		m.line = next.line
		m.req = next.req
		m.h = next.resp
		b.d.eng.ScheduleRunner(0, m)
	}
}

// Unblock is sent by a requester once it has installed a data response;
// it lets the directory start the next queued request for the line.
// (The call is already network-delayed by the requester.)
func (d *Directory) Unblock(line mem.Addr) {
	b := d.bankFor(line)
	b.unblock(b.line(line))
}

// SendUnblock sends the requester's Unblock message for line over the
// interconnect (control class); the line is released on delivery at its
// bank.
func (d *Directory) SendUnblock(line mem.Addr) {
	b := d.bankFor(line)
	m := b.newMsg()
	m.op = mUnblockLine
	m.line = line
	d.net.SendControlMsg(m)
}

// GetS handles a read request from core req.ID. resp is invoked at the
// requester (network-delayed) with the outcome. On RespData the requester
// must send Unblock after installing the line; RespSpec and RespNack need
// no unblock.
func (d *Directory) GetS(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	d.bankFor(lineAddr).getS(lineAddr, req, resp)
}

// GetX handles a write (or upgrade) request from core req.ID.
func (d *Directory) GetX(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	d.bankFor(lineAddr).getX(lineAddr, req, resp)
}

// shouldForceNack consults the bank's fault seam (per-bank override
// first, then the directory-wide hook).
func (b *dirBank) shouldForceNack(req ReqInfo) bool {
	if !req.IsTx {
		return false
	}
	if b.forceNack != nil {
		return b.forceNack(req)
	}
	return b.d.ForceNack != nil && b.d.ForceNack(req)
}

func (b *dirBank) getS(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	lineAddr = lineAddr.Line()
	l := b.line(lineAddr)
	if l.busy {
		l.queue = append(l.queue, queuedReq{isX: false, line: lineAddr, req: req, resp: resp})
		return
	}
	if b.shouldForceNack(req) {
		b.stats.Nacks++
		b.sendResp(false, resp, Resp{Kind: RespNack})
		b.startNext(l)
		return
	}
	b.stats.GetS++
	l.busy = true
	lat := b.accessLatency(l)

	m := b.newMsg()
	m.line = lineAddr
	m.l = l
	m.req = req
	m.h = resp
	switch {
	case l.state == dirI, l.state == dirE && l.owner == req.ID:
		// Cold line, or the owner silently dropped its copy and is
		// re-requesting: serve memory, grant exclusive.
		m.op = mGrantExcl
	case l.state == dirS:
		m.op = mGrantShared
	case l.state == dirE:
		b.stats.Forwards++
		m.op = mFwd
		m.isX = false
		m.core = l.owner
	}
	b.d.eng.ScheduleRunner(lat, m)
}

func (b *dirBank) getX(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	lineAddr = lineAddr.Line()
	l := b.line(lineAddr)
	if l.busy {
		l.queue = append(l.queue, queuedReq{isX: true, line: lineAddr, req: req, resp: resp})
		return
	}
	if b.shouldForceNack(req) {
		b.stats.Nacks++
		b.sendResp(false, resp, Resp{Kind: RespNack})
		b.startNext(l)
		return
	}
	b.stats.GetX++
	l.busy = true
	lat := b.accessLatency(l)

	m := b.newMsg()
	m.line = lineAddr
	m.l = l
	m.req = req
	m.h = resp
	switch {
	case l.state == dirI, l.state == dirE && l.owner == req.ID,
		l.state == dirS && l.sharers.onlyMember(req.ID):
		// Free line, silent-drop re-request, or upgrade with no other
		// sharer: grant from memory.
		m.op = mGrantExcl
	case l.state == dirE:
		b.stats.Forwards++
		m.op = mFwd
		m.isX = true
		m.core = l.owner
	case l.state == dirS:
		m.op = mCollect
	}
	b.d.eng.ScheduleRunner(lat, m)
}

// collectInvs sends invalidation probes to every sharer except the
// requester and aggregates the outcome: all invalidated → exclusive
// grant; any refusal (speculative forwarding by a reader) → SpecResp with
// the committed data and the minimum producer PiC; any nack → RespNack.
func (b *dirBank) collectInvs(lineAddr mem.Addr, l *dirLine, req ReqInfo, resp RespHandler) {
	count := 0
	for i := range b.d.cores {
		if l.sharers.has(i) && i != req.ID {
			count++
		}
	}
	if count == 0 {
		panic("coherence: collectInvs with no targets")
	}
	c := b.newInvC()
	c.line = lineAddr
	c.l = l
	c.req = req
	c.h = resp
	c.pending = count
	c.refused = false
	c.nacked = false
	c.minPiC = PiC(127)
	for i := range b.d.cores {
		if !l.sharers.has(i) || i == req.ID {
			continue
		}
		b.stats.Invs++
		b.d.net.SendControlMsg(b.newInvT(c, i))
	}
}

// WriteBack delivers an evicted dirty line to memory. cancelled lets the
// evicting core withdraw a writeback that was superseded by a forwarded
// probe served from its writeback buffer.
func (d *Directory) WriteBack(lineAddr mem.Addr, data mem.Line, sender int, cancelled *bool) {
	lineAddr = lineAddr.Line()
	if cancelled != nil && *cancelled {
		return
	}
	b := d.bankFor(lineAddr)
	l := b.line(lineAddr)
	b.stats.Writebacks++
	d.memory.WriteLine(lineAddr, data)
	if !l.busy && l.state == dirE && l.owner == sender {
		l.state = dirI
		l.owner = -1
	}
	// If busy, an in-flight flow will establish the next state.
}

// WriteBackData refreshes the memory image with the committed value of a
// line whose ownership the sender keeps — the pre-speculative-write
// writeback of lazy versioning (Section VI-B: "non-speculative values
// are written back to L2 before a block in L1 is speculatively
// modified"). Coherence state is untouched.
func (d *Directory) WriteBackData(lineAddr mem.Addr, data mem.Line) {
	d.bankFor(lineAddr).stats.Writebacks++
	d.memory.WriteLine(lineAddr, data)
}

// DropSharer records that core id silently discarded a Shared copy. The
// baseline protocol does not require this message (sharer lists may be
// stale); it exists for tests that want exact sharer tracking.
func (d *Directory) DropSharer(lineAddr mem.Addr, id int) {
	l := d.bankFor(lineAddr).line(lineAddr)
	if l.state == dirS {
		l.sharers.clear(id)
	}
}

// snapshot helpers for tests.

// StateOf reports the directory state of a line as a string, the owner,
// and the low 64 bits of the sharer bitset (tests address cores 0..63).
func (d *Directory) StateOf(lineAddr mem.Addr) (string, int, uint64) {
	l := d.bankFor(lineAddr).line(lineAddr)
	switch l.state {
	case dirI:
		return "I", -1, 0
	case dirS:
		return "S", -1, l.sharers[0]
	case dirE:
		return "E", l.owner, 0
	}
	panic(fmt.Sprintf("bad dir state %d", l.state))
}

// Busy reports whether the line has a request in flight.
func (d *Directory) Busy(lineAddr mem.Addr) bool {
	return d.bankFor(lineAddr).line(lineAddr).busy
}

// QueuedLen reports how many requests wait in the line's blocking queue.
func (d *Directory) QueuedLen(lineAddr mem.Addr) int {
	return len(d.bankFor(lineAddr).line(lineAddr).queue)
}
