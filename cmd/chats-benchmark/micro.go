package main

import (
	"fmt"
	"time"

	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/randprog"
	"chats/internal/sim"
)

// microBench is one layer microbenchmark. prepare builds the fixture
// outside the timed region and returns the loop, which performs the
// operation n times. The traced run and the go test benchmarks call
// the same loop, so both report the same cost per operation.
type microBench struct {
	metric  string
	unit    string // "ns", "us" or "ms" per operation
	iters   int    // operations timed in the traced run
	prepare func() (loop func(n int) error, err error)
}

var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// measure times n operations and returns the cost of one in b.unit.
func (b microBench) measure(n int) (float64, error) {
	loop, err := b.prepare()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", b.metric, err)
	}
	start := time.Now()
	if err := loop(n); err != nil {
		return 0, fmt.Errorf("%s: %w", b.metric, err)
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(n)
	return ns / unitNS[b.unit], nil
}

// footprintLines is the memory image mem.read_word_ns reads from: the
// largest STAMP medium footprint (vacation touches ~32.8k lines).
const footprintLines = 1 << 15

// micros are the layer microbenchmarks, each sized to take tens of
// milliseconds on a 2-CPU host.
var micros = []microBench{
	{"sim.schedule_fire_ns", "ns", 1_000_000, prepScheduleFire},
	{"machine.handoff_ns", "ns", 100_000, prepOneCore(func(mem.Addr) func(machine.Ctx) {
		return func(ctx machine.Ctx) { ctx.Work(1) }
	})},
	{"machine.empty_tx_ns", "ns", 30_000, prepOneCore(func(mem.Addr) func(machine.Ctx) {
		body := func(machine.Tx) {}
		return func(ctx machine.Ctx) { ctx.Atomic(body) }
	})},
	{"machine.tx4_ns", "ns", 20_000, prepOneCore(func(base mem.Addr) func(machine.Ctx) {
		body := func(tx machine.Tx) {
			for k := 0; k < 4; k++ {
				tx.Store(base.Plus(k), uint64(k))
			}
		}
		return func(ctx machine.Ctx) { ctx.Atomic(body) }
	})},
	{"machine.new_c16_ms", "ms", 40, prepMachineNew(16)},
	{"machine.new_c256_ms", "ms", 6, prepMachineNew(256)},
	{"cache.lookup_ns", "ns", 1_000_000, prepL1Lookup},
	{"cache.insert_evict_ns", "ns", 500_000, prepL1InsertEvict},
	{"cache.gang_invalidate_ns", "ns", 20_000, prepGangInvalidate},
	{"mem.read_word_ns", "ns", 1_000_000, prepMemReadWord},
	{"coherence.gets_ns", "ns", 100_000, prepDirGetS},
	{"coherence.getx_inv_ns", "ns", 20_000, prepDirGetXInv},
	{"network.send_ns", "ns", 1_000_000, prepNetSend},
	{"htm.vsb_ns", "ns", 1_000_000, prepVSB},
	{"randprog.generate_us", "us", 2_000, prepGenerate},
	{"difftest.ms_per_program", "ms", 10, prepDifftest},
}

type nopRunner struct{ n uint64 }

func (r *nopRunner) Run() { r.n++ }

// prepScheduleFire: one event scheduled and fired per operation.
func prepScheduleFire() (func(int) error, error) {
	e := new(sim.Engine)
	r := &nopRunner{}
	return func(n int) error {
		for i := 0; i < n; i++ {
			e.ScheduleRunner(1, r)
			e.Step()
		}
		return nil
	}, nil
}

// opLoop is a one-thread workload that repeats op n times; build makes
// op around a line of its own.
type opLoop struct {
	n     int
	build func(base mem.Addr) func(machine.Ctx)
	op    func(machine.Ctx)
}

func (o *opLoop) Name() string { return "op-loop" }
func (o *opLoop) Setup(w *machine.World, _ int) {
	o.op = o.build(w.Alloc.LineAligned(mem.WordsPerLine))
}
func (o *opLoop) Thread(ctx machine.Ctx, _ int) {
	for i := 0; i < o.n; i++ {
		o.op(ctx)
	}
}
func (o *opLoop) Check(*machine.World) error { return nil }

// prepOneCore runs the operation build makes n times on a one-core
// CHATS machine: every operation is a thread handoff through the
// machine runner, plus whatever the operation simulates.
func prepOneCore(build func(mem.Addr) func(machine.Ctx)) func() (func(int) error, error) {
	return func() (func(int) error, error) {
		policy, err := core.New(core.KindCHATS)
		if err != nil {
			return nil, err
		}
		cfg := machine.DefaultConfig()
		cfg.Cores = 1
		return func(n int) error {
			m, err := machine.New(cfg, policy)
			if err != nil {
				return err
			}
			_, err = m.Run(&opLoop{n: n, build: build})
			return err
		}, nil
	}
}

// prepMachineNew: one machine.New of the Table I machine at the given
// width per operation.
func prepMachineNew(cores int) func() (func(int) error, error) {
	return func() (func(int) error, error) {
		policy, err := core.New(core.KindCHATS)
		if err != nil {
			return nil, err
		}
		cfg := machine.DefaultConfig()
		cfg.Cores = cores
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := machine.New(cfg, policy); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
}

// fullL1 returns a Table I L1 (48 KiB, 12-way) with every way valid.
func fullL1() (*cache.Cache, int) {
	cfg := machine.DefaultConfig()
	c := cache.New(cfg.L1Size, cfg.L1Ways)
	lines := c.Sets() * c.Ways()
	for i := 0; i < lines; i++ {
		c.Insert(mem.Addr(i*mem.LineSize), cache.Shared, mem.Line{})
	}
	return c, lines
}

// prepL1Lookup: one hitting lookup per operation, striding over every
// resident line.
func prepL1Lookup() (func(int) error, error) {
	c, lines := fullL1()
	j := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			if c.Lookup(mem.Addr(j*mem.LineSize)) == nil {
				return fmt.Errorf("line %d missed in a full L1", j)
			}
			if j += 97; j >= lines {
				j -= lines
			}
		}
		return nil
	}, nil
}

// prepL1InsertEvict: one insert of a new line per operation, always
// evicting the set's LRU way.
func prepL1InsertEvict() (func(int) error, error) {
	c, lines := fullL1()
	next := lines
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, evicted, _ := c.Insert(mem.Addr(next*mem.LineSize), cache.Shared, mem.Line{}); !evicted {
				return fmt.Errorf("insert into a full L1 evicted nothing")
			}
			next++
		}
		return nil
	}, nil
}

// prepGangInvalidate: one abort-time gang invalidation per operation,
// which scans every way of a full L1.
func prepGangInvalidate() (func(int) error, error) {
	c, _ := fullL1()
	return func(n int) error {
		for i := 0; i < n; i++ {
			c.GangInvalidateSM()
		}
		return nil
	}, nil
}

// prepMemReadWord: one committed-word read per operation from an image
// of footprintLines lines, striding across it.
func prepMemReadWord() (func(int) error, error) {
	m := mem.NewMemory()
	for i := 0; i < footprintLines; i++ {
		m.WriteWord(mem.Addr(i*mem.LineSize), uint64(i)+1)
	}
	j := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			if m.ReadWord(mem.Addr(j*mem.LineSize)) != uint64(j)+1 {
				return fmt.Errorf("line %d read back the wrong word", j)
			}
			j = (j + 7919) & (footprintLines - 1)
		}
		return nil
	}, nil
}

// dirRig is a standalone directory with stub cores that answer every
// probe with data, as a core holding the line without a conflict does.
type dirRig struct {
	eng  *sim.Engine
	dir  *coherence.Directory
	line mem.Addr
}

type stubCore struct{}

func (stubCore) HandleProbe(p coherence.Probe) { p.ReplyData(mem.Line{}) }

// HandleResp unblocks the line once data arrives, as a requesting core
// does after installing it.
func (r *dirRig) HandleResp(resp coherence.Resp) {
	if resp.Kind == coherence.RespData {
		r.dir.SendUnblock(r.line)
	}
}

func newDirRig(cores int) *dirRig {
	cfg := machine.DefaultConfig()
	eng := new(sim.Engine)
	net := network.New(eng, cfg.LinkLatency)
	r := &dirRig{eng: eng, line: mem.LineSize}
	r.dir = coherence.NewDirectory(eng, net, mem.NewMemory(),
		coherence.Config{LLCLatency: cfg.LLCLatency, DRAMLatency: cfg.DRAMLatency})
	cs := make([]coherence.Core, cores)
	for i := range cs {
		cs[i] = stubCore{}
	}
	r.dir.AttachCores(cs)
	return r
}

// request issues one GetS or GetX from core and runs the flow to
// completion.
func (r *dirRig) request(getX bool, core int) {
	req := coherence.ReqInfo{ID: core}
	if getX {
		r.dir.GetX(r.line, req, r)
	} else {
		r.dir.GetS(r.line, req, r)
	}
	for r.eng.Step() {
	}
}

// prepDirGetS: one GetS flow per operation. After the first two
// requests the line is shared by both cores, so each flow is a
// directory grant from the LLC, the response hop and the unblock.
func prepDirGetS() (func(int) error, error) {
	r := newDirRig(2)
	return func(n int) error {
		for i := 0; i < n; i++ {
			r.request(false, i&1)
		}
		return nil
	}, nil
}

// prepDirGetXInv: one round per operation. Cores 1..3 re-share the line
// with GetS (the first forwarded from the owner), then core 0's GetX
// invalidates the three sharers and takes the line exclusive.
func prepDirGetXInv() (func(int) error, error) {
	r := newDirRig(4)
	return func(n int) error {
		for i := 0; i < n; i++ {
			for c := 1; c <= 3; c++ {
				r.request(false, c)
			}
			r.request(true, 0)
		}
		if st, owner, _ := r.dir.StateOf(r.line); st != "E" || owner != 0 {
			return fmt.Errorf("line ends %s at core %d, want E at core 0", st, owner)
		}
		return nil
	}, nil
}

// prepNetSend: one control message sent and delivered per operation.
func prepNetSend() (func(int) error, error) {
	eng := new(sim.Engine)
	net := network.New(eng, machine.DefaultConfig().LinkLatency)
	r := &nopRunner{}
	return func(n int) error {
		for i := 0; i < n; i++ {
			net.SendControlMsg(r)
			eng.Step()
		}
		return nil
	}, nil
}

// prepVSB: one Add, Lookup and Remove per operation on a Table II VSB
// (4 entries) that already holds three lines.
func prepVSB() (func(int) error, error) {
	v := htm.NewVSB(4)
	for i := 0; i < 3; i++ {
		v.Add(mem.Addr(i*mem.LineSize), mem.Line{})
	}
	line := mem.Addr(3 * mem.LineSize)
	return func(n int) error {
		for i := 0; i < n; i++ {
			if !v.Add(line, mem.Line{uint64(i)}) {
				return fmt.Errorf("VSB full with three entries")
			}
			if _, ok := v.Lookup(line); !ok {
				return fmt.Errorf("VSB lost an added line")
			}
			v.Remove(line)
		}
		return nil
	}, nil
}

// prepGenerate: one fuzz-preset program generated per operation.
func prepGenerate() (func(int) error, error) {
	g := fuzzGen()
	return func(n int) error {
		for i := 0; i < n; i++ {
			randprog.Generate(uint64(i)+1, g)
		}
		return nil
	}, nil
}

// prepDifftest: one full differential check (five systems, invariants
// on) of a fixed fuzz-preset program per operation.
func prepDifftest() (func(int) error, error) {
	p := randprog.Generate(1, fuzzGen())
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := difftest.Check(p, difftest.Options{}); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
