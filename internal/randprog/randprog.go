// Package randprog generates and interprets seeded random concurrent
// transactional programs for differential testing (the fuzzing layer of
// the correctness stack). A Program is a per-core sequence of actions —
// atomic blocks of transactional reads/read-modify-writes/stores over a
// shared slot pool, plus non-transactional loads, private stores and
// compute — whose semantics are simple enough to replay exactly on a
// single-threaded interpreter, yet whose access patterns (contention
// skew, false sharing via packed slots, producer→consumer chain motifs)
// probe the adversarial interleavings where speculative forwarding is
// most fragile.
//
// Programs serialize to a self-contained one-line spec string
// (grammar below), so a failing input survives as a committed corpus
// entry and replays byte-identically anywhere:
//
//	rp1;cores=C;pool=P;pack=K;priv=Q|<core 0>|<core 1>|...
//
// Each <core i> is a space-separated action list:
//
//	[op,op,...]  atomic block; ops: lN (tx load slot N),
//	             sN+V (tx store: acc+V), aN+V (tx add: slot += V),
//	             wN (N cycles of in-tx compute)
//	LN           non-tx load of shared slot N (value discarded)
//	SN+V         non-tx store of V to the core's private slot N
//	WN           non-tx compute, N cycles
//
// Shared slot N lives at line N/K, word N%K — pack K > 1 puts several
// slots on one cache line (false-sharing stress). Private slots are one
// line per core, so non-transactional stores never race transactions
// and the serial oracle stays exact.
package randprog

import (
	"fmt"
	"strconv"
	"strings"
)

// OpKind is one transactional operation inside an atomic block.
type OpKind uint8

const (
	// OpLoad folds the slot's value into the block accumulator:
	// acc = acc*mixMul + shared[slot].
	OpLoad OpKind = iota
	// OpStore writes acc+Arg to the slot (order-sensitive: the stored
	// value depends on every load before it).
	OpStore
	// OpAdd is a read-modify-write: shared[slot] += Arg. It does not
	// touch the accumulator, so programs whose only tx writes are adds
	// are commutative (any commit order yields the serial result).
	OpAdd
	// OpWork burns Arg cycles inside the transaction (widens the
	// conflict window without touching memory).
	OpWork
)

// Op is one transactional operation.
type Op struct {
	Kind OpKind
	Slot int    // shared slot for Load/Store/Add
	Arg  uint64 // store/add salt, or work cycles
}

// ActionKind classifies one top-level step of a core's program.
type ActionKind uint8

const (
	// ActBlock runs Ops as one atomic block.
	ActBlock ActionKind = iota
	// ActLoad is a non-transactional load of a shared slot; the value is
	// discarded (it has no well-defined serialization point, so the
	// oracle must not depend on it).
	ActLoad
	// ActStore is a non-transactional store to one of the core's private
	// slots (never shared, so the final value is core-local program
	// order — exactly checkable).
	ActStore
	// ActWork is non-transactional compute.
	ActWork
)

// Action is one top-level step.
type Action struct {
	Kind ActionKind
	Ops  []Op   // ActBlock
	Slot int    // ActLoad: shared slot; ActStore: private slot
	Arg  uint64 // ActStore value, ActWork cycles
}

// Program is a complete multi-core transactional program.
type Program struct {
	Cores int // participating cores (threads beyond Cores idle)
	Pool  int // shared slots
	Pack  int // slots per cache line, 1..WordsPerLine
	Priv  int // private slots per core, 0..WordsPerLine
	Seq   [][]Action
}

// mixMul is the accumulator mixing multiplier (Knuth's MMIX LCG
// constant); the machine-side workload and the interpreter must agree
// on it bit-for-bit.
const mixMul = 6364136223846793005

// blockAcc seeds the per-block accumulator from the core and the
// block's index in that core's program, so every block computes a
// distinct value stream even after the minimizer strips its loads.
func blockAcc(core, idx int) uint64 {
	return uint64(core+1)*0x9E3779B97F4A7C15 + uint64(idx+1)*0xBF58476D1CE4E5B9
}

// initSlot is the deterministic initial value of shared slot i (nonzero
// so a lost initialization is visible).
func initSlot(i int) uint64 { return uint64(i+1) * 1001 }

// maxPack bounds slots per line / private slots per core to one line.
const maxPack = 8 // mem.WordsPerLine, kept literal to avoid the import

// maxPool bounds the shared slot pool. Setup writes every slot and the
// oracle keeps a copy of each, so an unbounded pool from a spec string
// could hang the process or exhaust memory; the largest preset uses 24.
const maxPool = 4096

// Validate checks structural well-formedness (slot bounds, pool and
// pack ranges).
func (p *Program) Validate() error {
	if p.Cores < 1 || p.Cores > 64 {
		return fmt.Errorf("randprog: cores %d out of range [1,64]", p.Cores)
	}
	if p.Pool < 1 || p.Pool > maxPool {
		return fmt.Errorf("randprog: pool %d out of range [1,%d]", p.Pool, maxPool)
	}
	if p.Pack < 1 || p.Pack > maxPack {
		return fmt.Errorf("randprog: pack %d out of range [1,%d]", p.Pack, maxPack)
	}
	if p.Priv < 0 || p.Priv > maxPack {
		return fmt.Errorf("randprog: priv %d out of range [0,%d]", p.Priv, maxPack)
	}
	if len(p.Seq) != p.Cores {
		return fmt.Errorf("randprog: %d core programs for %d cores", len(p.Seq), p.Cores)
	}
	for c, seq := range p.Seq {
		for i, a := range seq {
			switch a.Kind {
			case ActBlock:
				for _, op := range a.Ops {
					if op.Kind != OpWork && (op.Slot < 0 || op.Slot >= p.Pool) {
						return fmt.Errorf("randprog: core %d action %d: slot %d out of pool %d", c, i, op.Slot, p.Pool)
					}
				}
			case ActLoad:
				if a.Slot < 0 || a.Slot >= p.Pool {
					return fmt.Errorf("randprog: core %d action %d: shared slot %d out of pool %d", c, i, a.Slot, p.Pool)
				}
			case ActStore:
				if a.Slot < 0 || a.Slot >= p.Priv {
					return fmt.Errorf("randprog: core %d action %d: private slot %d out of %d", c, i, a.Slot, p.Priv)
				}
			case ActWork:
			default:
				return fmt.Errorf("randprog: core %d action %d: unknown kind %d", c, i, a.Kind)
			}
		}
	}
	return nil
}

// NumOps counts every operation in the program: each transactional op
// and each non-transactional action is one op (the minimizer's size
// metric).
func (p *Program) NumOps() int {
	n := 0
	for _, seq := range p.Seq {
		for _, a := range seq {
			if a.Kind == ActBlock {
				n += len(a.Ops)
			} else {
				n++
			}
		}
	}
	return n
}

// NumBlocks counts the atomic blocks of one core (negative core: all).
func (p *Program) NumBlocks(core int) int {
	n := 0
	for c, seq := range p.Seq {
		if core >= 0 && c != core {
			continue
		}
		for _, a := range seq {
			if a.Kind == ActBlock {
				n++
			}
		}
	}
	return n
}

// Commutative reports whether every transactional write is an OpAdd:
// then the final shared state is independent of commit order and any
// run must reproduce the serial interpreter's result exactly.
func (p *Program) Commutative() bool {
	for _, seq := range p.Seq {
		for _, a := range seq {
			if a.Kind != ActBlock {
				continue
			}
			for _, op := range a.Ops {
				if op.Kind == OpStore {
					return false
				}
			}
		}
	}
	return true
}

// Clone deep-copies the program (the minimizer mutates candidates).
func (p *Program) Clone() *Program {
	q := &Program{Cores: p.Cores, Pool: p.Pool, Pack: p.Pack, Priv: p.Priv}
	q.Seq = make([][]Action, len(p.Seq))
	for c, seq := range p.Seq {
		q.Seq[c] = make([]Action, len(seq))
		for i, a := range seq {
			b := a
			if a.Ops != nil {
				b.Ops = append([]Op(nil), a.Ops...)
			}
			q.Seq[c][i] = b
		}
	}
	return q
}

// ---------- serial interpreter ----------

// BlockRef names one atomic block by core and position among that
// core's blocks (0-based, program order).
type BlockRef struct {
	Core  int
	Index int
}

// State is an interpreter memory image.
type State struct {
	Shared []uint64   // by slot
	Priv   [][]uint64 // [core][private slot]
}

// InitState returns the memory image the machine workload's Setup
// produces.
func (p *Program) InitState() *State {
	st := &State{Shared: make([]uint64, p.Pool), Priv: make([][]uint64, p.Cores)}
	for i := range st.Shared {
		st.Shared[i] = initSlot(i)
	}
	for c := range st.Priv {
		st.Priv[c] = make([]uint64, p.Priv)
	}
	return st
}

// blockIndex lists each core's atomic blocks, by core and block index,
// so a replay looks every block up in O(1) instead of scanning the
// core's sequence for it.
type blockIndex [][][]Op

func (p *Program) blockIndex() blockIndex {
	bi := make(blockIndex, len(p.Seq))
	for c, seq := range p.Seq {
		for _, a := range seq {
			if a.Kind == ActBlock {
				bi[c] = append(bi[c], a.Ops)
			}
		}
	}
	return bi
}

// block returns the ops of block (core, idx).
func (bi blockIndex) block(ref BlockRef) ([]Op, error) {
	if ref.Core < 0 || ref.Core >= len(bi) {
		return nil, fmt.Errorf("randprog: replay references core %d of %d", ref.Core, len(bi))
	}
	if blocks := bi[ref.Core]; ref.Index >= 0 && ref.Index < len(blocks) {
		return blocks[ref.Index], nil
	}
	return nil, fmt.Errorf("randprog: replay references block %d of core %d (has %d)", ref.Index, ref.Core, len(bi[ref.Core]))
}

// applyBlock runs one atomic block against st, mirroring the machine
// workload's Atomic body exactly (same accumulator seed, same mixing,
// uint64 wraparound).
func applyBlock(st *State, bi blockIndex, ref BlockRef) error {
	ops, err := bi.block(ref)
	if err != nil {
		return err
	}
	acc := blockAcc(ref.Core, ref.Index)
	for _, op := range ops {
		switch op.Kind {
		case OpLoad:
			acc = acc*mixMul + st.Shared[op.Slot]
		case OpStore:
			st.Shared[op.Slot] = acc + op.Arg
		case OpAdd:
			st.Shared[op.Slot] += op.Arg
		case OpWork:
		}
	}
	return nil
}

// Replay executes the atomic blocks in the given total order (which
// must contain every block of the program exactly once) and applies
// each core's private stores in program order, returning the final
// memory image. This is the serial oracle: a machine run is
// serializable iff its final memory equals Replay of its observed
// commit order.
func (p *Program) Replay(order []BlockRef) (*State, error) {
	seen := make(map[BlockRef]bool, len(order))
	for _, ref := range order {
		if seen[ref] {
			return nil, fmt.Errorf("randprog: replay order repeats block %+v", ref)
		}
		seen[ref] = true
	}
	if want := p.NumBlocks(-1); len(order) != want {
		return nil, fmt.Errorf("randprog: replay order has %d blocks, program has %d", len(order), want)
	}
	st := p.InitState()
	bi := p.blockIndex()
	for _, ref := range order {
		if err := applyBlock(st, bi, ref); err != nil {
			return nil, err
		}
	}
	for c, seq := range p.Seq {
		for _, a := range seq {
			if a.Kind == ActStore {
				st.Priv[c][a.Slot] = a.Arg
			}
		}
	}
	return st, nil
}

// SerialOrder is the canonical single-threaded schedule: all of core
// 0's blocks in program order, then core 1's, and so on.
func (p *Program) SerialOrder() []BlockRef {
	var order []BlockRef
	for c := 0; c < p.Cores; c++ {
		for i, n := 0, p.NumBlocks(c); i < n; i++ {
			order = append(order, BlockRef{Core: c, Index: i})
		}
	}
	return order
}

// ---------- spec-string serialization ----------

// String serializes the program in the rp1 grammar; Parse inverts it.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rp1;cores=%d;pool=%d;pack=%d;priv=%d", p.Cores, p.Pool, p.Pack, p.Priv)
	for _, seq := range p.Seq {
		b.WriteByte('|')
		for i, a := range seq {
			if i > 0 {
				b.WriteByte(' ')
			}
			switch a.Kind {
			case ActBlock:
				b.WriteByte('[')
				for j, op := range a.Ops {
					if j > 0 {
						b.WriteByte(',')
					}
					switch op.Kind {
					case OpLoad:
						fmt.Fprintf(&b, "l%d", op.Slot)
					case OpStore:
						fmt.Fprintf(&b, "s%d+%d", op.Slot, op.Arg)
					case OpAdd:
						fmt.Fprintf(&b, "a%d+%d", op.Slot, op.Arg)
					case OpWork:
						fmt.Fprintf(&b, "w%d", op.Arg)
					}
				}
				b.WriteByte(']')
			case ActLoad:
				fmt.Fprintf(&b, "L%d", a.Slot)
			case ActStore:
				fmt.Fprintf(&b, "S%d+%d", a.Slot, a.Arg)
			case ActWork:
				fmt.Fprintf(&b, "W%d", a.Arg)
			}
		}
	}
	return b.String()
}

// Parse reads a spec string back into a Program and validates it.
func Parse(spec string) (*Program, error) {
	spec = strings.TrimSpace(spec)
	parts := strings.Split(spec, "|")
	header := strings.Split(parts[0], ";")
	if header[0] != "rp1" {
		return nil, fmt.Errorf("randprog: spec must start with rp1, got %q", header[0])
	}
	p := &Program{}
	for _, kv := range header[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("randprog: bad header field %q", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("randprog: bad header value %q: %v", kv, err)
		}
		switch k {
		case "cores":
			p.Cores = n
		case "pool":
			p.Pool = n
		case "pack":
			p.Pack = n
		case "priv":
			p.Priv = n
		default:
			return nil, fmt.Errorf("randprog: unknown header field %q", k)
		}
	}
	progs := parts[1:]
	if len(progs) != p.Cores {
		return nil, fmt.Errorf("randprog: %d core programs for cores=%d", len(progs), p.Cores)
	}
	p.Seq = make([][]Action, p.Cores)
	for c, prog := range progs {
		for _, tok := range strings.Fields(prog) {
			a, err := parseAction(tok)
			if err != nil {
				return nil, fmt.Errorf("randprog: core %d: %v", c, err)
			}
			p.Seq[c] = append(p.Seq[c], a)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseAction(tok string) (Action, error) {
	if strings.HasPrefix(tok, "[") {
		if !strings.HasSuffix(tok, "]") {
			return Action{}, fmt.Errorf("unterminated block %q", tok)
		}
		body := tok[1 : len(tok)-1]
		a := Action{Kind: ActBlock}
		if body == "" {
			return a, nil
		}
		for _, ot := range strings.Split(body, ",") {
			op, err := parseOp(ot)
			if err != nil {
				return Action{}, err
			}
			a.Ops = append(a.Ops, op)
		}
		return a, nil
	}
	if len(tok) < 2 {
		return Action{}, fmt.Errorf("bad action %q", tok)
	}
	switch tok[0] {
	case 'L':
		n, err := strconv.Atoi(tok[1:])
		if err != nil {
			return Action{}, fmt.Errorf("bad action %q: %v", tok, err)
		}
		return Action{Kind: ActLoad, Slot: n}, nil
	case 'S':
		slot, arg, err := parseSlotArg(tok[1:])
		if err != nil {
			return Action{}, fmt.Errorf("bad action %q: %v", tok, err)
		}
		return Action{Kind: ActStore, Slot: slot, Arg: arg}, nil
	case 'W':
		n, err := strconv.ParseUint(tok[1:], 10, 64)
		if err != nil {
			return Action{}, fmt.Errorf("bad action %q: %v", tok, err)
		}
		return Action{Kind: ActWork, Arg: n}, nil
	}
	return Action{}, fmt.Errorf("unknown action %q", tok)
}

func parseOp(tok string) (Op, error) {
	if len(tok) < 2 {
		return Op{}, fmt.Errorf("bad op %q", tok)
	}
	switch tok[0] {
	case 'l':
		n, err := strconv.Atoi(tok[1:])
		if err != nil {
			return Op{}, fmt.Errorf("bad op %q: %v", tok, err)
		}
		return Op{Kind: OpLoad, Slot: n}, nil
	case 's':
		slot, arg, err := parseSlotArg(tok[1:])
		if err != nil {
			return Op{}, fmt.Errorf("bad op %q: %v", tok, err)
		}
		return Op{Kind: OpStore, Slot: slot, Arg: arg}, nil
	case 'a':
		slot, arg, err := parseSlotArg(tok[1:])
		if err != nil {
			return Op{}, fmt.Errorf("bad op %q: %v", tok, err)
		}
		return Op{Kind: OpAdd, Slot: slot, Arg: arg}, nil
	case 'w':
		n, err := strconv.ParseUint(tok[1:], 10, 64)
		if err != nil {
			return Op{}, fmt.Errorf("bad op %q: %v", tok, err)
		}
		return Op{Kind: OpWork, Arg: n}, nil
	}
	return Op{}, fmt.Errorf("unknown op %q", tok)
}

// parseSlotArg splits "3+17" into (3, 17).
func parseSlotArg(s string) (int, uint64, error) {
	a, b, ok := strings.Cut(s, "+")
	if !ok {
		return 0, 0, fmt.Errorf("missing +arg in %q", s)
	}
	slot, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	arg, err := strconv.ParseUint(b, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return slot, arg, nil
}
