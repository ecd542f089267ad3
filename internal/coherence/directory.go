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

// Config holds the directory/memory timing parameters (Table I).
type Config struct {
	// LLCLatency is the shared-LLC/directory access latency charged on
	// every request that reaches the directory.
	LLCLatency uint64
	// DRAMLatency is charged the first time a line is touched (cold miss
	// filled from main memory).
	DRAMLatency uint64
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

// Directory is the single home node for every line: MESI state, the
// LLC/memory data image, and the blocking request queue per line.
type Directory struct {
	eng    *sim.Engine
	net    *network.Network
	memory *mem.Memory
	cores  []Core
	cfg    Config
	lines  map[mem.Addr]*dirLine
	stats  Stats

	// Free lists for the pooled flow/message objects below. Every
	// request hop used to capture its state in a fresh closure; the
	// pools plus sim.Runner dispatch make the whole request path
	// allocation-free in steady state.
	freeMsgs []*dirMsg
	freeFwds []*fwdFlow
	freeInvC []*invCollect
	freeInvT []*invTarget

	// ForceNack, when non-nil, is consulted for every transactional
	// request before it is admitted; returning true bounces the request
	// with RespNack without touching line state. The fault injector uses
	// it to model an overloaded home node. Non-transactional requests are
	// never force-nacked: the machine's non-speculative paths do not
	// retry nacks, and sparing them preserves forward progress.
	ForceNack func(req ReqInfo) bool
}

// NewDirectory builds the home node. cores may be populated later via
// AttachCores (the machine wires cores and directory together).
func NewDirectory(eng *sim.Engine, net *network.Network, memory *mem.Memory, cfg Config) *Directory {
	return &Directory{eng: eng, net: net, memory: memory, cfg: cfg, lines: make(map[mem.Addr]*dirLine)}
}

// AttachCores registers the core controllers the directory can probe.
func (d *Directory) AttachCores(cores []Core) {
	if len(cores) > MaxCores {
		panic(fmt.Sprintf("coherence: %d cores exceeds MaxCores=%d", len(cores), MaxCores))
	}
	d.cores = cores
}

// TotalStats returns the directory's activity counters.
func (d *Directory) TotalStats() Stats { return d.stats }

// Lines returns how many distinct lines the directory tracks.
func (d *Directory) Lines() int { return len(d.lines) }

// fail panics on a broken protocol invariant, naming the cycle and
// line so the message alone locates the failure.
func (d *Directory) fail(what string, line mem.Addr) {
	panic(fmt.Sprintf("coherence: cycle %d line %v: %s", d.eng.Now(), line.Line(), what))
}

func (d *Directory) line(a mem.Addr) *dirLine {
	a = a.Line()
	l, ok := d.lines[a]
	if !ok {
		l = &dirLine{state: dirI, owner: -1}
		d.lines[a] = l
	}
	return l
}

// accessLatency charges LLC latency plus a DRAM fill on first touch.
func (d *Directory) accessLatency(l *dirLine) uint64 {
	lat := d.cfg.LLCLatency
	if !l.inLLC {
		l.inLLC = true
		lat += d.cfg.DRAMLatency
		d.stats.DRAMFills++
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
// union over the ops.
type dirMsg struct {
	d    *Directory
	op   uint8
	isX  bool
	core int
	line mem.Addr
	l    *dirLine
	req  ReqInfo
	h    RespHandler
	resp Resp
}

func (d *Directory) newMsg() *dirMsg {
	if n := len(d.freeMsgs); n > 0 {
		m := d.freeMsgs[n-1]
		d.freeMsgs[n-1] = nil
		d.freeMsgs = d.freeMsgs[:n-1]
		return m
	}
	return &dirMsg{d: d}
}

func (d *Directory) freeMsg(m *dirMsg) {
	m.h = nil
	m.l = nil
	m.resp = Resp{}
	d.freeMsgs = append(d.freeMsgs, m)
}

// sendResp schedules a response delivery at the requester over the
// given message class.
func (d *Directory) sendResp(data bool, h RespHandler, r Resp) {
	m := d.newMsg()
	m.op = mResp
	m.h = h
	m.resp = r
	if data {
		d.net.SendDataMsg(m)
	} else {
		d.net.SendControlMsg(m)
	}
}

func (m *dirMsg) Run() {
	d := m.d
	switch m.op {
	case mResp:
		h, r := m.h, m.resp
		d.freeMsg(m)
		h.HandleResp(r)
	case mStart:
		isX, line, req, h := m.isX, m.line, m.req, m.h
		d.freeMsg(m)
		if isX {
			d.GetX(line, req, h)
		} else {
			d.GetS(line, req, h)
		}
	case mGrantExcl:
		line, l, req, h := m.line, m.l, m.req, m.h
		d.freeMsg(m)
		data := d.memory.ReadLine(line)
		l.state = dirE
		l.owner = req.ID
		l.sharers = sharerSet{}
		d.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: true})
	case mGrantShared:
		line, l, req, h := m.line, m.l, m.req, m.h
		d.freeMsg(m)
		data := d.memory.ReadLine(line)
		l.sharers.set(req.ID)
		d.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: false})
	case mFwd:
		f := d.newFwd()
		f.line = m.line
		f.l = m.l
		f.req = m.req
		f.h = m.h
		f.owner = m.core
		f.isX = m.isX
		f.phase = fwdDeliver
		d.freeMsg(m)
		d.net.SendControlMsg(f)
	case mCollect:
		line, l, req, h := m.line, m.l, m.req, m.h
		d.freeMsg(m)
		d.collectInvs(line, l, req, h)
	case mUnblockLine:
		line := m.line
		d.freeMsg(m)
		d.unblock(line, d.line(line))
	default:
		d.fail(fmt.Sprintf("unknown dirMsg op %d", m.op), m.line)
	}
}

// fwdFlow is the continuation of a request forwarded to an exclusive
// owner: it is the probe's own delivery payload (fwdDeliver phase
// invokes HandleProbe at the owner), the probe's replier, and the
// payload of every second directory-side hop. The spec-cancel and nack
// replies ship the flow itself back to the directory and do their
// bookkeeping on arrival, one control hop later.
type fwdFlow struct {
	d     *Directory
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
	fwdCancelSpec              // directory side of a spec-forwarded cancel: count, unblock
	fwdCancelNack              // directory side of a nack: count, unblock
)

func (d *Directory) newFwd() *fwdFlow {
	if n := len(d.freeFwds); n > 0 {
		f := d.freeFwds[n-1]
		d.freeFwds[n-1] = nil
		d.freeFwds = d.freeFwds[:n-1]
		return f
	}
	return &fwdFlow{d: d}
}

func (d *Directory) freeFwd(f *fwdFlow) {
	f.h = nil
	f.l = nil
	d.freeFwds = append(d.freeFwds, f)
}

func (f *fwdFlow) ReplyData(data mem.Line) {
	d := f.d
	if f.isX {
		// Ownership moves; memory refreshed so the (possibly
		// transactional) new owner can be silently invalidated.
		d.sendResp(true, f.h, Resp{Kind: RespData, Data: data, Excl: true})
		f.phase = fwdMemX
	} else {
		// Owner keeps a Shared copy; data to requester and to memory.
		d.sendResp(true, f.h, Resp{Kind: RespData, Data: data, Excl: false})
		f.phase = fwdMemS
	}
	f.data = data
	d.net.SendDataMsg(f)
}

func (f *fwdFlow) ReplyNoData() {
	f.phase = fwdNoData
	f.d.net.SendControlMsg(f)
}

func (f *fwdFlow) ReplySpec(data mem.Line, pic PiC) {
	d := f.d
	d.sendResp(true, f.h, Resp{Kind: RespSpec, Data: data, PiC: pic})
	f.phase = fwdCancelSpec // cancel at directory
	d.net.SendControlMsg(f)
}

func (f *fwdFlow) ReplyNack() {
	d := f.d
	d.sendResp(false, f.h, Resp{Kind: RespNack})
	f.phase = fwdCancelNack
	d.net.SendControlMsg(f)
}

func (f *fwdFlow) Run() {
	d := f.d
	switch f.phase {
	case fwdMemS:
		d.memory.WriteLine(f.line, f.data)
		f.l.state = dirS
		f.l.sharers = sharerSet{}
		f.l.sharers.set(f.owner)
		f.l.sharers.set(f.req.ID)
		f.l.owner = -1
		// requester's Unblock releases the line
		d.freeFwd(f)
	case fwdMemX:
		d.memory.WriteLine(f.line, f.data)
		f.l.state = dirE
		f.l.owner = f.req.ID
		f.l.sharers = sharerSet{}
		d.freeFwd(f)
	case fwdNoData:
		data := d.memory.ReadLine(f.line)
		f.l.state = dirE
		f.l.owner = f.req.ID
		f.l.sharers = sharerSet{}
		h := f.h
		d.freeFwd(f)
		d.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: true})
	case fwdDeliver:
		kind := FwdGetS
		if f.isX {
			kind = FwdGetX
		}
		d.cores[f.owner].HandleProbe(Probe{Line: f.line, Kind: kind, Req: f.req, Reply: f})
	case fwdCancelSpec:
		d.stats.SpecCancels++
		l := f.l
		line := f.line
		d.freeFwd(f)
		d.unblock(line, l)
	case fwdCancelNack:
		d.stats.Nacks++
		l := f.l
		line := f.line
		d.freeFwd(f)
		d.unblock(line, l)
	default:
		d.fail(fmt.Sprintf("bad fwdFlow phase %d", f.phase), f.line)
	}
}

// invCollect aggregates the outcome of the invalidation probes sent on a
// GetX against a Shared line.
type invCollect struct {
	d       *Directory
	line    mem.Addr
	l       *dirLine
	req     ReqInfo
	h       RespHandler
	pending int
	refused bool
	nacked  bool
	minPiC  PiC
}

func (d *Directory) newInvC() *invCollect {
	if n := len(d.freeInvC); n > 0 {
		c := d.freeInvC[n-1]
		d.freeInvC[n-1] = nil
		d.freeInvC = d.freeInvC[:n-1]
		return c
	}
	return &invCollect{d: d}
}

func (d *Directory) freeInvCollect(c *invCollect) {
	c.h = nil
	c.l = nil
	d.freeInvC = append(d.freeInvC, c)
}

func (c *invCollect) done() {
	c.pending--
	if c.pending > 0 {
		return
	}
	d := c.d
	switch {
	case c.nacked:
		d.stats.Nacks++
		d.sendResp(false, c.h, Resp{Kind: RespNack})
		d.unblock(c.line, c.l)
	case c.refused:
		d.stats.SpecCancels++
		data := d.memory.ReadLine(c.line)
		d.sendResp(true, c.h, Resp{Kind: RespSpec, Data: data, PiC: c.minPiC})
		d.unblock(c.line, c.l)
	default:
		data := d.memory.ReadLine(c.line)
		c.l.state = dirE
		c.l.owner = c.req.ID
		c.l.sharers = sharerSet{}
		d.sendResp(true, c.h, Resp{Kind: RespData, Data: data, Excl: true})
		// requester's Unblock releases the line
	}
	d.freeInvCollect(c)
}

// invTarget is one sharer's probe delivery payload (invDeliver phase
// invokes HandleProbe at the sharer), its probe replier, and the
// payload of its ack hop back to the directory. The reply methods only
// route the ack; all bookkeeping (and the object's recycling) happens
// directory-side in Run.
type invTarget struct {
	c      *invCollect
	target int
	phase  uint8 // invDeliver | invAck
	act    uint8
	pic    PiC
}

const (
	invDeliver uint8 = iota // deliver the invalidation probe at the sharer
	invAck                  // ack arrived back at the directory
)

const (
	ackInv uint8 = iota // invalidated (or already silently dropped)
	ackSpec
	ackNack
)

func (d *Directory) newInvT(c *invCollect, target int) *invTarget {
	if n := len(d.freeInvT); n > 0 {
		t := d.freeInvT[n-1]
		d.freeInvT[n-1] = nil
		d.freeInvT = d.freeInvT[:n-1]
		t.c = c
		t.target = target
		t.phase = invDeliver
		return t
	}
	return &invTarget{c: c, target: target, phase: invDeliver}
}

// ack routes the reply back to the directory.
func (t *invTarget) ack() {
	t.phase = invAck
	t.c.d.net.SendControlMsg(t)
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
		c.d.cores[t.target].HandleProbe(Probe{Line: c.line, Kind: InvProbe, Req: c.req, Reply: t})
		return
	}
	c, target, act, pic := t.c, t.target, t.act, t.pic
	t.c = nil
	c.d.freeInvT = append(c.d.freeInvT, t)
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

func (d *Directory) unblock(line mem.Addr, l *dirLine) {
	if !l.busy {
		d.fail("unblock on non-busy line", line)
	}
	l.busy = false
	d.startNext(l)
}

// startNext pops the next queued request if the line is free. Called
// from unblock and from the force-nack path: a dequeued request that is
// bounced by ForceNack never reaches unblock, and without this the rest
// of the queue would strand until a new request happened to complete.
func (d *Directory) startNext(l *dirLine) {
	if !l.busy && len(l.queue) > 0 {
		next := l.queue[0]
		l.queue[0] = queuedReq{}
		l.queue = l.queue[1:]
		m := d.newMsg()
		m.op = mStart
		m.isX = next.isX
		m.line = next.line
		m.req = next.req
		m.h = next.resp
		d.eng.ScheduleRunner(0, m)
	}
}

// Unblock is sent by a requester once it has installed a data response;
// it lets the directory start the next queued request for the line.
// (The call is already network-delayed by the requester.)
func (d *Directory) Unblock(line mem.Addr) {
	d.unblock(line, d.line(line))
}

// SendUnblock sends the requester's Unblock message for line over the
// interconnect (control class); the line is released on delivery.
func (d *Directory) SendUnblock(line mem.Addr) {
	m := d.newMsg()
	m.op = mUnblockLine
	m.line = line
	d.net.SendControlMsg(m)
}

// shouldForceNack consults the fault seam.
func (d *Directory) shouldForceNack(req ReqInfo) bool {
	return req.IsTx && d.ForceNack != nil && d.ForceNack(req)
}

// GetS handles a read request from core req.ID. resp is invoked at the
// requester (network-delayed) with the outcome. On RespData the requester
// must send Unblock after installing the line; RespSpec and RespNack need
// no unblock.
func (d *Directory) GetS(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	lineAddr = lineAddr.Line()
	l := d.line(lineAddr)
	if l.busy {
		l.queue = append(l.queue, queuedReq{isX: false, line: lineAddr, req: req, resp: resp})
		return
	}
	if d.shouldForceNack(req) {
		d.stats.Nacks++
		d.sendResp(false, resp, Resp{Kind: RespNack})
		d.startNext(l)
		return
	}
	d.stats.GetS++
	l.busy = true
	lat := d.accessLatency(l)

	m := d.newMsg()
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
		d.stats.Forwards++
		m.op = mFwd
		m.isX = false
		m.core = l.owner
	}
	d.eng.ScheduleRunner(lat, m)
}

// GetX handles a write (or upgrade) request from core req.ID.
func (d *Directory) GetX(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	lineAddr = lineAddr.Line()
	l := d.line(lineAddr)
	if l.busy {
		l.queue = append(l.queue, queuedReq{isX: true, line: lineAddr, req: req, resp: resp})
		return
	}
	if d.shouldForceNack(req) {
		d.stats.Nacks++
		d.sendResp(false, resp, Resp{Kind: RespNack})
		d.startNext(l)
		return
	}
	d.stats.GetX++
	l.busy = true
	lat := d.accessLatency(l)

	m := d.newMsg()
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
		d.stats.Forwards++
		m.op = mFwd
		m.isX = true
		m.core = l.owner
	case l.state == dirS:
		m.op = mCollect
	}
	d.eng.ScheduleRunner(lat, m)
}

// collectInvs sends invalidation probes to every sharer except the
// requester and aggregates the outcome: all invalidated → exclusive
// grant; any refusal (speculative forwarding by a reader) → SpecResp with
// the committed data and the minimum producer PiC; any nack → RespNack.
func (d *Directory) collectInvs(lineAddr mem.Addr, l *dirLine, req ReqInfo, resp RespHandler) {
	count := 0
	for i := range d.cores {
		if l.sharers.has(i) && i != req.ID {
			count++
		}
	}
	if count == 0 {
		d.fail("collectInvs with no targets", lineAddr)
	}
	c := d.newInvC()
	c.line = lineAddr
	c.l = l
	c.req = req
	c.h = resp
	c.pending = count
	c.refused = false
	c.nacked = false
	c.minPiC = PiC(127)
	for i := range d.cores {
		if !l.sharers.has(i) || i == req.ID {
			continue
		}
		d.stats.Invs++
		d.net.SendControlMsg(d.newInvT(c, i))
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
	l := d.line(lineAddr)
	d.stats.Writebacks++
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
	d.stats.Writebacks++
	d.memory.WriteLine(lineAddr, data)
}

// DropSharer records that core id silently discarded a Shared copy. The
// baseline protocol does not require this message (sharer lists may be
// stale); it exists for tests that want exact sharer tracking.
func (d *Directory) DropSharer(lineAddr mem.Addr, id int) {
	l := d.line(lineAddr)
	if l.state == dirS {
		l.sharers.clear(id)
	}
}

// snapshot helpers for tests.

// StateOf reports the directory state of a line as a string, the owner,
// and the low 64 bits of the sharer bitset (tests address cores 0..63).
func (d *Directory) StateOf(lineAddr mem.Addr) (string, int, uint64) {
	l := d.line(lineAddr)
	switch l.state {
	case dirI:
		return "I", -1, 0
	case dirS:
		return "S", -1, l.sharers[0]
	case dirE:
		return "E", l.owner, 0
	}
	d.fail(fmt.Sprintf("bad dir state %d", l.state), lineAddr)
	return "", 0, 0
}

// Busy reports whether the line has a request in flight.
func (d *Directory) Busy(lineAddr mem.Addr) bool {
	return d.line(lineAddr).busy
}

// QueuedLen reports how many requests wait in the line's blocking queue.
func (d *Directory) QueuedLen(lineAddr mem.Addr) int {
	return len(d.line(lineAddr).queue)
}
