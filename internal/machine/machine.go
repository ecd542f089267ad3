package machine

import (
	"fmt"
	"runtime/debug"

	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/faults"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
)

// World exposes the simulated memory to workload setup and checking code
// (direct access, outside simulated time).
type World struct {
	Mem   *mem.Memory
	Alloc *mem.Allocator
}

// Workload is a transactional program the machine can run: Setup lays
// out data structures in simulated memory, Thread is the per-thread
// body, and Check verifies the final memory state (the simulator flushes
// caches before calling it).
type Workload interface {
	Name() string
	Setup(w *World, threads int)
	Thread(ctx Ctx, tid int)
	Check(w *World) error
}

// Machine is the assembled simulated multicore.
type Machine struct {
	cfg    Config
	policy htm.Policy

	eng    *sim.Engine
	net    *network.Network
	memory *mem.Memory
	dir    *coherence.Directory
	nodes  []*Node
	world  *World

	lockAddr mem.Addr
	lockLine mem.Addr

	powerHolder int
	tsCounter   uint64
	tracer      Tracer
	xtracer     XTracer     // tracer's XTracer view, resolved once at SetTracer
	optracer    OpTracer    // ditto for the op-level stream
	ftracer     FaultTracer // ditto for injected-fault events
	checker     RunChecker  // ditto for the run-lifecycle hooks
	cmtracer    CMTracer    // ditto for contention-manager decisions

	inj  *faults.Injector
	ring *eventRing // recent-event buffer for watchdog diagnostics

	// cm is the adaptive contention manager (nil under the fixed
	// manager), holding per-core attempt windows and per-line heat.
	cm *htm.AdaptiveCM
	// stmLock is the STM fallback path's version-lock table: one word
	// per entry, each on its own line, hashed by data word address.
	// Allocated only when Fallback.Kind == FallbackSTM so other
	// layouts are byte-identical to before.
	stmLock []mem.Addr

	stats RunStats
}

// New assembles a machine running the given HTM system.
func New(cfg Config, policy htm.Policy) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:         cfg,
		policy:      policy,
		eng:         new(sim.Engine),
		memory:      mem.NewMemory(),
		powerHolder: -1,
	}
	m.net = network.New(m.eng, cfg.LinkLatency)
	m.dir = coherence.NewDirectory(m.eng, m.net, m.memory, coherence.Config{
		LLCLatency:  cfg.LLCLatency,
		DRAMLatency: cfg.DRAMLatency,
	})
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		// The injector owns a dedicated PRNG stream: sharing one with the
		// nodes would make the fault schedule depend on unrelated draws.
		m.inj = faults.NewInjector(*cfg.Faults, sim.NewRand(cfg.Seed*2654435761+12345))
		if cfg.Faults.Jitter > 0 {
			m.net.Jitter = func() uint64 {
				d := m.inj.JitterDelay()
				if d > 0 {
					m.countFault(-1, "jitter")
				}
				return d
			}
		}
		if cfg.Faults.Nack > 0 {
			m.dir.ForceNack = func(req coherence.ReqInfo) bool {
				if m.inj.ForceNack() {
					m.countFault(req.ID, "nack")
					return true
				}
				return false
			}
		}
	}
	if cfg.WatchdogCycles > 0 || cfg.MaxAttempts > 0 {
		m.ring = newEventRing(ringCapacity)
	}
	alloc := mem.NewAllocator(0)
	m.lockAddr = alloc.LineAligned(1) // fallback lock on its own line
	m.lockLine = m.lockAddr.Line()
	if cfg.Fallback.Kind == FallbackSTM {
		n := cfg.Fallback.stmLocks()
		m.stmLock = make([]mem.Addr, n)
		for i := range m.stmLock {
			m.stmLock[i] = alloc.LineAligned(1)
		}
	}
	if cfg.CM.Kind != htm.CMFixed {
		// Dedicated PRNG stream, like the fault injector: the adaptive
		// waits must never reshuffle workload or fault draws.
		m.cm = htm.NewAdaptiveCM(cfg.CM, cfg.Cores, sim.NewRand(cfg.Seed*9176156071+77))
	}
	m.world = &World{Mem: m.memory, Alloc: alloc}

	cores := make([]coherence.Core, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		n := newNode(i, m, policy)
		m.nodes = append(m.nodes, n)
		cores[i] = n
	}
	m.dir.AttachCores(cores)
	m.stats.System = policy.Name()
	return m, nil
}

// World returns the simulated memory handles for setup and checking.
func (m *Machine) World() *World { return m.world }

func (m *Machine) nextTS() uint64 {
	m.tsCounter++
	return m.tsCounter
}

// tryAcquirePower hands the unique PowerTM token to core id if it is
// free (the paper's runtime guarantees at most one power transaction; a
// thread that cannot elevate keeps executing normally rather than
// blocking).
func (m *Machine) tryAcquirePower(id int) bool {
	if m.powerHolder != -1 {
		return false
	}
	if m.inj != nil && m.inj.DenyPower() {
		m.countFault(id, "powerdeny")
		return false
	}
	m.powerHolder = id
	m.stats.PowerAcqs++
	return true
}

func (m *Machine) releasePower(id int) {
	if m.powerHolder != id {
		panic(fmt.Sprintf("machine: core %d released power held by %d", id, m.powerHolder))
	}
	m.powerHolder = -1
}

// stmVerAddr maps a data word address onto its STM version lock
// (multiplicative hash; collisions just share a lock).
func (m *Machine) stmVerAddr(a mem.Addr) mem.Addr {
	h := (uint64(a) >> 3) * 0x9E3779B97F4A7C15
	return m.stmLock[(h>>32)%uint64(len(m.stmLock))]
}

// progress sums the commit/fallback counters across the node shards;
// the livelock watchdog uses it as its forward-progress measure.
func (m *Machine) progress() uint64 {
	var p uint64
	for _, n := range m.nodes {
		p += n.stats.Commits + n.stats.Fallbacks
	}
	return p
}

// HookPanic is the error a run fails with when a workload's Setup or
// Check panics: the counterpart of ThreadPanic for the two hooks that
// run outside simulated time. Hook is "Setup" or "Check", Value the
// recovered panic value and Stack the stack at recovery.
type HookPanic struct {
	Hook  string
	Value any
	Stack []byte
}

func (e *HookPanic) Error() string {
	return fmt.Sprintf("workload %s panicked: %v\n%s", e.Hook, e.Value, e.Stack)
}

// callHook runs a workload hook, returning its panic as a *HookPanic.
func callHook(hook string, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &HookPanic{Hook: hook, Value: rec, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Run executes the workload to completion and returns the collected
// statistics. Threads min(cfg.Cores, requested) are spawned — one per
// core. A panic in the workload's Setup, Thread or Check fails the run
// with a *HookPanic or *ThreadPanic instead of escaping.
func (m *Machine) Run(w Workload) (RunStats, error) {
	m.stats.Workload = w.Name()
	if err := callHook("Setup", func() error { w.Setup(m.world, m.cfg.Cores); return nil }); err != nil {
		return m.stats, fmt.Errorf("machine: %s on %s: %w", m.policy.Name(), w.Name(), err)
	}
	if m.checker != nil {
		m.checker.BeginRun(m)
	}

	r := newRunner(m)
	runErr := r.run(w)

	m.collectStats()
	if runErr != nil {
		return m.stats, fmt.Errorf("machine: %s on %s: %w", m.policy.Name(), w.Name(), runErr)
	}
	m.flushCaches()
	if m.checker != nil {
		if err := m.checker.EndRun(m); err != nil {
			return m.stats, fmt.Errorf("machine: %s on %s failed invariant check: %w",
				m.policy.Name(), w.Name(), err)
		}
	}
	if err := callHook("Check", func() error { return w.Check(m.world) }); err != nil {
		return m.stats, fmt.Errorf("machine: %s on %s failed validation: %w",
			m.policy.Name(), w.Name(), err)
	}
	return m.stats, nil
}

func (m *Machine) collectStats() {
	m.stats.Cycles = m.eng.Now()
	for _, n := range m.nodes {
		m.stats.addShard(&n.stats)
		m.stats.L1Hits += n.l1.Stats.Hits
		m.stats.L1Misses += n.l1.Stats.Misses
	}
	m.stats.Flits = m.net.Stats.Flits
	m.stats.Messages = m.net.Stats.Messages
	ds := m.dir.TotalStats()
	m.stats.DirFwds = ds.Forwards
	m.stats.DirInvs = ds.Invs
}

// flushCaches writes every dirty line back to the memory image so
// Workload.Check sees the final architectural state. No speculative
// state may remain.
func (m *Machine) flushCaches() {
	for _, n := range m.nodes {
		if n.tx.InTx() {
			panic("machine: transaction still active after run")
		}
		n.l1.ForEach(func(e *cache.Entry) {
			if e.SM {
				panic("machine: speculative line survived the run")
			}
			if e.Dirty {
				m.memory.WriteLine(e.Tag, e.Data)
			}
		})
		for tag, wb := range n.wbPending {
			if !wb.cancelled {
				m.memory.WriteLine(tag, wb.data)
			}
		}
	}
}

// Stats returns the statistics collected so far.
func (m *Machine) Stats() RunStats { return m.stats }

// WaveStats returns the run's fired-event count three times, in the
// (events, waves, serial) shape that run records and the benchmark
// read: the engine runs one event at a time, so every event is a
// one-event serial wave and events/wave and the serial fraction read
// 1.0 by construction.
func (m *Machine) WaveStats() (events, waves, serial uint64) {
	n := m.eng.Fired()
	return n, n, n
}

// DirBankLoad reports directory occupancy after a run: how many
// distinct lines the directory tracked and how many requests
// (GetS+GetX) it served. Bank is always 0.
type DirBankLoad struct {
	Bank     int
	Lines    int
	Requests uint64
}

// DirBankLoads returns the whole directory as a one-entry report. It
// remains only because the benchmark harness (cmd/chats-benchmark)
// sums Requests over it; delete it once that harness reads a directory
// total instead.
func (m *Machine) DirBankLoads() []DirBankLoad {
	st := m.dir.TotalStats()
	return []DirBankLoad{{Lines: m.dir.Lines(), Requests: st.GetS + st.GetX}}
}
