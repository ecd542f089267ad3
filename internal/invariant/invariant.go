// Package invariant provides a runtime self-checking layer for the
// simulated machine. A Checker attaches as a tracer (machine.SetTracer)
// and verifies, while the run executes, the structural invariants the
// chaining protocols promise:
//
//   - chain acyclicity: the observed forwarding graph (Forward/Consume
//     events) never contains a cycle among live transactions — checked
//     for edges carrying a chain position (PiC-tracking systems); the
//     naive design's PiC-less edges may legally form transient cycles
//     that its validation counter breaks;
//   - PiC/Cons consistency: a consumer accepting a speculative line at
//     PiC p ends up strictly below p in the chain, sets its Cons bit,
//     and a non-empty VSB always implies Cons;
//   - consumption discipline: every Consume is preceded by a matching
//     Forward, and no transaction commits with unvalidated VSB entries
//     or live consumer edges;
//   - single-writer: two live transactions whose write sets overlap on
//     a line must be related by a forwarding edge on that line;
//   - serializability: committed transactions, replayed in commit order
//     against a shadow memory, reproduce exactly the values the real
//     run observed, and the final shadow equals the final simulated
//     memory (a serial re-execution oracle).
//
// The first violation halts the simulation (machine.Halt) with a
// descriptive error; EndRun performs the final memory comparison. The
// checker is deterministic and adds no simulated-time cost — it runs in
// the tracer seam — but costs host time per event, so it is opt-in
// (chatsim -invariants).
package invariant

import (
	"fmt"
	"sort"

	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
)

// Counts reports how much checking a run performed (for cost reporting
// and for tests asserting the checker actually ran).
type Counts struct {
	NonTxOps    uint64 // plain/fallback ops checked against shadow memory
	TxReplays   uint64 // committed transactions replayed
	TxOps       uint64 // speculative ops replayed inside those
	Edges       uint64 // forwarding edges tracked
	Commits     uint64 // commit-time structural checks
	LinesDiffed uint64 // lines compared at EndRun
}

// op is one logged speculative operation of an uncommitted transaction.
type txOp struct {
	kind machine.OpKind
	addr mem.Addr
	val  uint64
}

// edge records who produced the line and in which of the producer's
// transactions (generation), so stale edges never alias a newer one.
type edge struct {
	producer int
	prodGen  uint64
	pic      coherence.PiC
}

// Checker implements machine.Tracer, machine.OpTracer and
// machine.RunChecker. Attach with machine.SetTracer before Run.
type Checker struct {
	machine.NopTracer
	m      *machine.Machine
	shadow map[mem.Addr]mem.Line // line addr -> committed value
	ops    [][]txOp              // per-core speculative op log
	gen    []uint64              // per-core transaction generation
	// pend and live are indexed by consumer core, then by line, so a
	// core's begin, commit and abort touch only its own edges.
	pend []map[mem.Addr]edge // forwarded, not yet consumed
	live []map[mem.Addr]edge // consumed, not yet validated

	overlay map[mem.Addr]uint64 // replay's read-your-own-writes buffer
	ws      []mem.Addr          // committer's sorted write set

	counts Counts
	err    error
}

// New returns a Checker ready to attach to a machine.
func New() *Checker {
	return &Checker{
		shadow:  make(map[mem.Addr]mem.Line),
		overlay: make(map[mem.Addr]uint64),
	}
}

// Counts returns the work counters accumulated so far.
func (c *Checker) Counts() Counts { return c.counts }

// Err returns the first violation, or nil.
func (c *Checker) Err() error { return c.err }

// violation records the first violation and halts the run.
func (c *Checker) violation(format string, args ...any) {
	err := fmt.Errorf("invariant: "+format, args...)
	if c.err == nil {
		c.err = err
	}
	if c.m != nil {
		c.m.Halt(err)
	}
}

// ---------- RunChecker ----------

// BeginRun seeds the shadow memory from the post-Setup memory image and
// resets all per-run state.
func (c *Checker) BeginRun(m *machine.Machine) {
	c.m = m
	c.shadow = make(map[mem.Addr]mem.Line)
	m.World().Mem.ForEachLine(func(a mem.Addr, l mem.Line) {
		c.shadow[a] = l
	})
	n := m.NumCores()
	c.ops = make([][]txOp, n)
	c.gen = make([]uint64, n)
	c.pend = make([]map[mem.Addr]edge, n)
	c.live = make([]map[mem.Addr]edge, n)
	for i := 0; i < n; i++ {
		c.pend[i] = make(map[mem.Addr]edge)
		c.live[i] = make(map[mem.Addr]edge)
	}
	c.counts = Counts{}
	c.err = nil
}

// EndRun compares the shadow memory against the final simulated memory:
// the two must agree word for word, or some committed effect was lost,
// duplicated, or reordered unserializably.
func (c *Checker) EndRun(m *machine.Machine) error {
	if c.err != nil {
		return c.err
	}
	memory := m.World().Mem
	seen := make(map[mem.Addr]bool)
	memory.ForEachLine(func(a mem.Addr, l mem.Line) {
		seen[a] = true
		c.counts.LinesDiffed++
		if c.err == nil && c.shadow[a] != l {
			c.err = fmt.Errorf("invariant: final memory diverges from serial re-execution at line %v: machine %v, oracle %v",
				a, l, c.shadow[a])
		}
	})
	// Lines the oracle holds that the machine never wrote back must be
	// zero-diffs too (sorted for a deterministic error message).
	var extra []mem.Addr
	for a := range c.shadow {
		if !seen[a] {
			extra = append(extra, a)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, a := range extra {
		c.counts.LinesDiffed++
		if c.err == nil && c.shadow[a] != (mem.Line{}) {
			c.err = fmt.Errorf("invariant: oracle holds %v = %v but the machine's final memory has no such line",
				a, c.shadow[a])
		}
	}
	return c.err
}

// ---------- shadow memory ----------

func (c *Checker) shadowWord(a mem.Addr) uint64 {
	return c.shadow[a.Line()][a.WordIndex()]
}

func (c *Checker) setShadowWord(a mem.Addr, v uint64) {
	line := c.shadow[a.Line()]
	line[a.WordIndex()] = v
	c.shadow[a.Line()] = line
}

// ---------- OpTracer ----------

// Op logs speculative operations for commit-time replay and applies
// plain/fallback operations to the shadow immediately.
//
// Stores and CASes are value-checked: they only complete after acquiring
// ownership (a local M/E hit or a GetX grant), so their completion order
// matches the coherence order and the shadow is exact at each one.
// Non-transactional loads are applied without a value check: a load's
// value binds at the directory while the reply is still in flight, so a
// store that completes during the flight legally makes the load look
// stale at completion time (the load linearizes at its bind point).
// Transactional loads don't have this gap — a committed transaction's
// read set is coherence-protected from bind to commit — which is why the
// commit-time replay can check them exactly.
func (c *Checker) Op(cycle uint64, core int, kind machine.OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	if inTx {
		c.ops[core] = append(c.ops[core], txOp{kind: kind, addr: addr, val: val})
		return
	}
	c.counts.NonTxOps++
	switch kind {
	case machine.OpStore:
		c.setShadowWord(addr, val)
	case machine.OpCAS:
		if want := c.shadowWord(addr); val != want {
			c.violation("cycle %d core %d: CAS %v saw previous %d, oracle has %d",
				cycle, core, addr, val, want)
		}
		if ok {
			c.setShadowWord(addr, val2)
		}
	}
}

// ---------- Tracer ----------

func (c *Checker) TxBegin(cycle uint64, core, attempt int, power bool) {
	c.gen[core]++
	c.ops[core] = c.ops[core][:0]
	// Pending forwards addressed to a previous attempt can never be
	// consumed (the consumer stale-drops the delivery); clear them.
	clear(c.pend[core])
}

// TxCommit replays the transaction's operations against the shadow in
// commit order and folds its writes in, then runs the structural
// commit-time checks.
func (c *Checker) TxCommit(cycle uint64, core int, consumed int) {
	c.counts.Commits++
	if n := c.m.VSBLen(core); n != 0 {
		c.violation("cycle %d core %d: committing with %d unvalidated VSB entries", cycle, core, n)
	}
	if c.m.TxCons(core) {
		c.violation("cycle %d core %d: committing with Cons still set", cycle, core)
	}
	if live := c.live[core]; len(live) > 0 {
		first := true
		var lowest mem.Addr
		for line := range live {
			if first || line < lowest {
				first, lowest = false, line
			}
		}
		c.violation("cycle %d core %d: committing with unvalidated consumption of %v", cycle, core, lowest)
	}
	c.ws = c.m.AppendWriteSet(c.ws[:0], core)
	if msg := singleWriter(c.m, cycle, core, c.ws); msg != "" {
		c.violation("%s", msg)
	}
	c.replay(cycle, core)
	// Consumer edges must already be gone (checked above); drop any
	// leftovers so one violation does not cascade. Producer edges stay:
	// their consumers still hold unvalidated fictions and resolve them
	// through Validate or TxAbort (the generation tag keeps these edges
	// out of the cycle check once this core begins a new transaction).
	clear(c.live[core])
}

// replay re-executes core's logged speculative ops against the shadow
// with a read-your-own-writes overlay, then commits the overlay.
func (c *Checker) replay(cycle uint64, core int) {
	c.counts.TxReplays++
	overlay := c.overlay
	clear(overlay)
	for _, o := range c.ops[core] {
		c.counts.TxOps++
		switch o.kind {
		case machine.OpLoad:
			want, own := overlay[o.addr]
			if !own {
				want = c.shadowWord(o.addr)
			}
			if o.val != want {
				c.violation("cycle %d core %d: committed transaction read %v = %d, serial re-execution gives %d",
					cycle, core, o.addr, o.val, want)
			}
		case machine.OpStore:
			overlay[o.addr] = o.val
		}
	}
	for a, v := range overlay {
		c.setShadowWord(a, v)
	}
	c.ops[core] = c.ops[core][:0]
}

// txView is the per-core transactional state the single-writer rule
// reads; *machine.Machine implements it.
type txView interface {
	NumCores() int
	TxStatus(i int) htm.Status
	InWriteSet(i int, line mem.Addr) bool
	InVSB(i int, line mem.Addr) bool
}

// singleWriter verifies that the committing transaction, whose write
// set ws is sorted ascending, is the only REAL owner of each line it
// wrote, and returns the violation message ("" if none). Other live
// transactions may hold the same line in their write sets, but only as
// unvalidated VSB fictions (forwarded copies whose validation will
// succeed or abort them); a second directory-granted speculative copy
// would be a coherence bug. The committing core's own copies are all
// real — its VSB is empty. The report names the lowest offending core
// and, within it, the smallest line.
func singleWriter(v txView, cycle uint64, core int, ws []mem.Addr) string {
	if len(ws) == 0 {
		return ""
	}
	for i := 0; i < v.NumCores(); i++ {
		if i == core {
			continue
		}
		if st := v.TxStatus(i); st != htm.Active && st != htm.Committing {
			continue
		}
		for _, a := range ws {
			if v.InWriteSet(i, a) && !v.InVSB(i, a) {
				return fmt.Sprintf("cycle %d: core %d commits line %v while core %d also holds it in its write set outside the VSB (two real owners)",
					cycle, core, a, i)
			}
		}
	}
	return ""
}

func (c *Checker) TxAbort(cycle uint64, core int, cause htm.AbortCause) {
	c.ops[core] = c.ops[core][:0]
	// The abort drains this core's VSB, so its consumer edges die with
	// it. Edges it produced stay until each consumer's own validation or
	// abort resolves them.
	clear(c.live[core])
	clear(c.pend[core])
}

func (c *Checker) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {
	c.pend[requester][line] = edge{
		producer: producer, prodGen: c.gen[producer], pic: pic,
	}
}

func (c *Checker) Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC) {
	c.counts.Edges++
	e, ok := c.pend[core][line]
	if !ok {
		c.violation("cycle %d core %d: consumed %v with no preceding forward", cycle, core, line)
		return
	}
	delete(c.pend[core], line)
	c.live[core][line] = e

	if !c.m.TxCons(core) {
		c.violation("cycle %d core %d: consumed %v without setting Cons", cycle, core, line)
	}
	if c.m.VSBLen(core) == 0 {
		c.violation("cycle %d core %d: consumed %v with an empty VSB", cycle, core, line)
	}
	if at := c.m.TxPiC(core); pic.Valid() && (!at.Valid() || at >= pic) {
		c.violation("cycle %d core %d: consumed %v at PiC %d but sits at PiC %d (must be strictly below the producer)",
			cycle, core, line, pic, at)
	}
	// Acyclicity is a promise of the PiC protocol, so it attaches only
	// to edges that carry a chain position (valid PiC or PiCPower). The
	// naive design forwards with PiCNone and legitimately forms
	// transient cycles — its validation counter, not chain order, is
	// what breaks them (Section VI-B).
	if (pic.Valid() || pic == coherence.PiCPower) && c.cyclic(core, e) {
		c.violation("cycle %d core %d: consuming %v from core %d closes a chain cycle",
			cycle, core, line, e.producer)
	}
}

// cyclic reports whether the new edge producer->core closes a cycle in
// the live forwarding graph: can core already reach producer through
// edges whose producers are still running the transaction that forwarded
// (a dead or recycled producer's edges impose no ordering any more)?
func (c *Checker) cyclic(core int, newEdge edge) bool {
	current := func(p int, g uint64) bool {
		if g != c.gen[p] {
			return false
		}
		st := c.m.TxStatus(p)
		return st == htm.Active || st == htm.Committing
	}
	seen := map[int]bool{core: true}
	var reach func(from int) bool
	reach = func(from int) bool {
		if from == newEdge.producer {
			return true
		}
		for consumer, edges := range c.live {
			for _, e := range edges {
				if e.producer != from || seen[consumer] || !current(from, e.prodGen) {
					continue
				}
				seen[consumer] = true
				if reach(consumer) {
					return true
				}
			}
		}
		return false
	}
	// Start from the new consumer: a path core => ... => producer means
	// producer must commit after core, while the new edge demands the
	// opposite.
	return reach(core)
}

func (c *Checker) Validate(cycle uint64, core int, line mem.Addr, ok bool) {
	if n := c.m.VSBLen(core); n > 0 && !c.m.TxCons(core) {
		c.violation("cycle %d core %d: VSB holds %d entries but Cons is clear", cycle, core, n)
	}
	if ok {
		delete(c.live[core], line)
	}
}
