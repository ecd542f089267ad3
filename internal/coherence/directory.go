package coherence

import (
	"fmt"
	"math/bits"

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

func (s *sharerSet) set(i int)   { s[i>>6] |= 1 << uint(i&63) }
func (s *sharerSet) clear(i int) { s[i>>6] &^= 1 << uint(i&63) }

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

// reqQueue is the FIFO of requests parked behind a busy line. It is a
// ring whose length is a power of two, so a line reuses its slots for
// as long as it keeps a queue and grows only past its deepest backlog.
type reqQueue struct {
	buf  []queuedReq
	head int
	n    int
}

func (q *reqQueue) push(r queuedReq) {
	if q.n == len(q.buf) {
		buf := make([]queuedReq, max(4, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqQueue) pop() queuedReq {
	r := q.buf[q.head]
	q.buf[q.head] = queuedReq{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

type dirLine struct {
	state   dirState
	owner   int
	sharers sharerSet
	busy    bool
	queue   reqQueue
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

	// Pools for the flow/message objects below. Each object embeds the
	// event it is delivered by, bound once when it is built, so the
	// whole request path is allocation-free in steady state.
	msgs  sim.FreeList[dirMsg]
	fwds  sim.FreeList[fwdFlow]
	invCs sim.FreeList[invCollect]
	invTs sim.FreeList[invTarget]

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
// union over the ops. A message is pending at most once: Run returns it
// to the pool before acting, so it may be taken and posted again inside
// its own Run.
type dirMsg struct {
	ev   sim.Event
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
	m := d.msgs.Get()
	if m == nil {
		m = &dirMsg{d: d}
		m.ev.Bind(m)
	}
	return m
}

func (d *Directory) freeMsg(m *dirMsg) {
	m.h = nil
	m.l = nil
	m.resp = Resp{}
	d.msgs.Put(m)
}

// sendResp schedules a response delivery at the requester over the
// given message class.
func (d *Directory) sendResp(data bool, h RespHandler, r Resp) {
	m := d.newMsg()
	m.op = mResp
	m.h = h
	m.resp = r
	if data {
		d.net.PostData(&m.ev)
	} else {
		d.net.PostControl(&m.ev)
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
		d.request(isX, line, req, h)
	case mGrantExcl:
		line, l, req, h := m.line, m.l, m.req, m.h
		d.freeMsg(m)
		d.grantExcl(line, l, req.ID, h)
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
		d.net.PostControl(&f.ev)
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
	ev    sim.Event
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
	f := d.fwds.Get()
	if f == nil {
		f = &fwdFlow{d: d}
		f.ev.Bind(f)
	}
	return f
}

func (d *Directory) freeFwd(f *fwdFlow) {
	f.h = nil
	f.l = nil
	d.fwds.Put(f)
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
	d.net.PostData(&f.ev)
}

func (f *fwdFlow) ReplyNoData() {
	f.phase = fwdNoData
	f.d.net.PostControl(&f.ev)
}

func (f *fwdFlow) ReplySpec(data mem.Line, pic PiC) {
	d := f.d
	d.sendResp(true, f.h, Resp{Kind: RespSpec, Data: data, PiC: pic})
	f.phase = fwdCancelSpec // cancel at directory
	d.net.PostControl(&f.ev)
}

func (f *fwdFlow) ReplyNack() {
	d := f.d
	d.sendResp(false, f.h, Resp{Kind: RespNack})
	f.phase = fwdCancelNack
	d.net.PostControl(&f.ev)
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
		line, l, id, h := f.line, f.l, f.req.ID, f.h
		d.freeFwd(f)
		d.grantExcl(line, l, id, h)
	case fwdDeliver:
		kind := FwdGetS
		if f.isX {
			kind = FwdGetX
		}
		d.cores[f.owner].HandleProbe(Probe{Line: f.line, Kind: kind, Req: f.req, Reply: f})
	case fwdCancelSpec, fwdCancelNack:
		if f.phase == fwdCancelSpec {
			d.stats.SpecCancels++
		} else {
			d.stats.Nacks++
		}
		line, l := f.line, f.l
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
	nacked  bool
}

func (d *Directory) newInvC() *invCollect {
	if c := d.invCs.Get(); c != nil {
		return c
	}
	return &invCollect{d: d}
}

func (d *Directory) freeInvCollect(c *invCollect) {
	c.h = nil
	c.l = nil
	d.invCs.Put(c)
}

func (c *invCollect) done() {
	c.pending--
	if c.pending > 0 {
		return
	}
	d := c.d
	if c.nacked {
		d.stats.Nacks++
		d.sendResp(false, c.h, Resp{Kind: RespNack})
		d.unblock(c.line, c.l)
	} else {
		d.grantExcl(c.line, c.l, c.req.ID, c.h)
	}
	d.freeInvCollect(c)
}

// invTarget is one sharer's probe delivery payload (invDeliver phase
// invokes HandleProbe at the sharer), its probe replier, and the
// payload of its ack hop back to the directory. The reply methods only
// route the ack; all bookkeeping (and the object's recycling) happens
// directory-side in Run.
type invTarget struct {
	ev     sim.Event
	c      *invCollect
	target int
	phase  uint8 // invDeliver | invAck
	nack   bool  // the sharer refused to invalidate for now
}

const (
	invDeliver uint8 = iota // deliver the invalidation probe at the sharer
	invAck                  // ack arrived back at the directory
)

// newInvT returns a target in the invDeliver phase; the caller sets c
// and target.
func (d *Directory) newInvT() *invTarget {
	t := d.invTs.Get()
	if t == nil {
		t = &invTarget{}
		t.ev.Bind(t)
	}
	return t
}

// ack routes the reply back to the directory.
func (t *invTarget) ack() {
	t.phase = invAck
	t.c.d.net.PostControl(&t.ev)
}

func (t *invTarget) ReplyData(mem.Line) { // invalidated (clean sharer)
	t.nack = false
	t.ack()
}

// already silently dropped
func (t *invTarget) ReplyNoData() { t.ReplyData(mem.Line{}) }

// ReplySpec fails the run: a sharer always honors an invalidation, since
// the protocol forwards speculative data only to a forwarded request.
func (t *invTarget) ReplySpec(mem.Line, PiC) {
	t.c.d.fail("a sharer answered an invalidation with speculative data", t.c.line)
}

func (t *invTarget) ReplyNack() {
	t.nack = true
	t.ack()
}

func (t *invTarget) Run() {
	if t.phase == invDeliver {
		c := t.c
		c.d.cores[t.target].HandleProbe(Probe{Line: c.line, Kind: InvProbe, Req: c.req, Reply: t})
		return
	}
	c, target, nack := t.c, t.target, t.nack
	t.c = nil
	t.phase = invDeliver
	c.d.invTs.Put(t)
	if nack {
		c.nacked = true
	} else {
		c.l.sharers.clear(target)
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
	if !l.busy && l.queue.n > 0 {
		next := l.queue.pop()
		m := d.newMsg()
		m.op = mStart
		m.isX = next.isX
		m.line = next.line
		m.req = next.req
		m.h = next.resp
		d.eng.Post(0, &m.ev)
	}
}

// SendUnblock sends the requester's Unblock message for line over the
// interconnect (control class); the line is released on delivery.
func (d *Directory) SendUnblock(line mem.Addr) {
	m := d.newMsg()
	m.op = mUnblockLine
	m.line = line
	d.net.PostControl(&m.ev)
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
	d.request(false, lineAddr, req, resp)
}

// GetX handles a write (or upgrade) request from core req.ID.
func (d *Directory) GetX(lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	d.request(true, lineAddr, req, resp)
}

// request admits a GetS or (isX) GetX: it queues the request behind a
// busy line, bounces it when the fault seam force-NACKs it, and
// otherwise takes the line and, after the access latency, starts the
// flow the line's state calls for.
func (d *Directory) request(isX bool, lineAddr mem.Addr, req ReqInfo, resp RespHandler) {
	lineAddr = lineAddr.Line()
	l := d.line(lineAddr)
	if l.busy {
		l.queue.push(queuedReq{isX: isX, line: lineAddr, req: req, resp: resp})
		return
	}
	if d.shouldForceNack(req) {
		d.stats.Nacks++
		d.sendResp(false, resp, Resp{Kind: RespNack})
		d.startNext(l)
		return
	}
	if isX {
		d.stats.GetX++
	} else {
		d.stats.GetS++
	}
	l.busy = true
	lat := d.accessLatency(l)

	m := d.newMsg()
	m.line = lineAddr
	m.l = l
	m.req = req
	m.h = resp
	m.isX = isX
	switch {
	case l.state == dirI, l.state == dirE && l.owner == req.ID,
		isX && l.state == dirS && l.sharers.onlyMember(req.ID):
		// Cold line, the owner re-requesting a copy it silently
		// dropped, or an upgrade with no other sharer: serve memory,
		// grant exclusive.
		m.op = mGrantExcl
	case l.state == dirE:
		d.stats.Forwards++
		m.op = mFwd
		m.core = l.owner
	case isX:
		m.op = mCollect
	default:
		m.op = mGrantShared
	}
	d.eng.Post(lat, &m.ev)
}

// grantExcl serves line from memory and makes core id its exclusive
// owner; the requester's Unblock releases the line.
func (d *Directory) grantExcl(line mem.Addr, l *dirLine, id int, h RespHandler) {
	data := d.memory.ReadLine(line)
	l.state = dirE
	l.owner = id
	l.sharers = sharerSet{}
	d.sendResp(true, h, Resp{Kind: RespData, Data: data, Excl: true})
}

// collectInvs sends invalidation probes to every sharer except the
// requester and aggregates the outcome: all invalidated → exclusive
// grant; any nack → RespNack. Targets get their probes in ascending core
// order.
func (d *Directory) collectInvs(lineAddr mem.Addr, l *dirLine, req ReqInfo, resp RespHandler) {
	targets := l.sharers
	targets.clear(req.ID)
	count := 0
	for _, w := range targets {
		count += bits.OnesCount64(w)
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
	c.nacked = false
	for wi, w := range targets {
		for ; w != 0; w &= w - 1 {
			d.stats.Invs++
			t := d.newInvT()
			t.c = c
			t.target = wi<<6 + bits.TrailingZeros64(w)
			d.net.PostControl(&t.ev)
		}
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

// StateOf reports the directory state of a line as a string, the owner,
// and the low 64 bits of the sharer bitset (tests address cores 0..63).
// Tests and the benchmark's per-layer probes read it.
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
