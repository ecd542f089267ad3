package randprog

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
)

// Workload adapts a Program to machine.Workload. In fixed mode
// (NewWorkload) the program is given up front and the machine must run
// with at least Program.Cores threads; in family mode (Family) the
// program is generated at Setup time for however many threads the
// machine has, so the registered benchmark composes with any -cores
// sweep.
//
// Check verifies the exactly-checkable slices of the final memory:
// every private slot must hold its core's last non-tx store, and for
// commutative programs the shared pool must equal the serial
// interpreter's result (commit order cannot matter). Order-sensitive
// shared state needs a commit-order witness and is checked by
// internal/difftest instead.
type Workload struct {
	name string
	prog *Program                   // fixed mode
	gen  func(threads int) *Program // family mode

	p        *Program // active program after Setup
	poolBase mem.Addr
	privBase mem.Addr
}

// NewWorkload wraps a fixed program.
func NewWorkload(p *Program) *Workload {
	return &Workload{name: "randprog", prog: p}
}

// Family returns a self-generating workload: each Setup draws the
// program from (seed, g) with Cores clamped to the machine's thread
// count.
func Family(name string, seed uint64, g GenConfig) *Workload {
	return &Workload{name: name, gen: func(threads int) *Program {
		if g.Cores > threads {
			g.Cores = threads
		}
		return Generate(seed, g)
	}}
}

// Program returns the active program (after Setup in family mode).
func (w *Workload) Program() *Program { return w.p }

func (w *Workload) Name() string { return w.name }

// Setup lays the shared pool out at poolBase (Pack slots per line) and
// one private line per core, then writes the initial slot values.
func (w *Workload) Setup(wd *machine.World, threads int) {
	if w.gen != nil {
		w.p = w.gen(threads)
	} else {
		w.p = w.prog
	}
	p := w.p
	if p.Cores > threads {
		panic(fmt.Sprintf("randprog: program needs %d cores, machine has %d", p.Cores, threads))
	}
	lines := (p.Pool + p.Pack - 1) / p.Pack
	w.poolBase = wd.Alloc.Lines(lines)
	w.privBase = wd.Alloc.Lines(p.Cores)
	for i := 0; i < p.Pool; i++ {
		wd.Mem.WriteWord(w.SlotAddr(i), initSlot(i))
	}
}

// SlotAddr returns the simulated address of shared slot i.
func (w *Workload) SlotAddr(i int) mem.Addr {
	return w.poolBase + mem.Addr((i/w.p.Pack)*mem.LineSize+(i%w.p.Pack)*mem.WordSize)
}

// PrivAddr returns the simulated address of core c's private slot k.
func (w *Workload) PrivAddr(c, k int) mem.Addr {
	return w.privBase + mem.Addr(c*mem.LineSize+k*mem.WordSize)
}

// Thread interprets core tid's action sequence. The atomic-block body
// mirrors Program.applyBlock bit-for-bit (same accumulator seed and
// mixing), which is what makes the serial replay an exact oracle.
func (w *Workload) Thread(ctx machine.Ctx, tid int) {
	p := w.p
	if tid >= p.Cores {
		return
	}
	blockIdx := 0
	for _, a := range p.Seq[tid] {
		switch a.Kind {
		case ActBlock:
			idx := blockIdx
			blockIdx++
			ops := a.Ops
			ctx.Atomic(func(tx machine.Tx) {
				acc := blockAcc(tid, idx)
				for _, op := range ops {
					switch op.Kind {
					case OpLoad:
						acc = acc*mixMul + tx.Load(w.SlotAddr(op.Slot))
					case OpStore:
						tx.Store(w.SlotAddr(op.Slot), acc+op.Arg)
					case OpAdd:
						tx.Add(w.SlotAddr(op.Slot), op.Arg)
					case OpWork:
						tx.Work(op.Arg)
					}
				}
			})
		case ActLoad:
			ctx.Load(w.SlotAddr(a.Slot)) // value intentionally discarded
		case ActStore:
			ctx.Store(w.PrivAddr(tid, a.Slot), a.Arg)
		case ActWork:
			ctx.Work(a.Arg)
		}
	}
}

// Check verifies private slots exactly and, for commutative programs,
// the shared pool against the serial interpreter.
func (w *Workload) Check(wd *machine.World) error {
	p := w.p
	want, err := p.Replay(p.SerialOrder())
	if err != nil {
		return err
	}
	for c := 0; c < p.Cores; c++ {
		for k := 0; k < p.Priv; k++ {
			if got := wd.Mem.ReadWord(w.PrivAddr(c, k)); got != want.Priv[c][k] {
				return fmt.Errorf("randprog: core %d private slot %d = %d, want %d", c, k, got, want.Priv[c][k])
			}
		}
	}
	if !p.Commutative() {
		return nil
	}
	for i := 0; i < p.Pool; i++ {
		if got := wd.Mem.ReadWord(w.SlotAddr(i)); got != want.Shared[i] {
			return fmt.Errorf("randprog: shared slot %d = %d, want %d (commutative program)", i, got, want.Shared[i])
		}
	}
	return nil
}
