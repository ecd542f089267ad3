package telemetry

import (
	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/stats"
)

// Options configure a Collector.
type Options struct {
	// Window is the cycle-window width of the time series (0 = 10 000).
	Window uint64
	// MaxEvents caps the retained structured-event buffer; aggregation
	// (metrics, hot lines, chain state) continues past the cap and the
	// exports report the number of dropped events. 0 keeps everything.
	MaxEvents int
}

// coreState is the per-core bookkeeping the Collector needs to turn the
// flat event stream into per-transaction measurements.
type coreState struct {
	inTx       bool
	beginCycle uint64
	attempt    int
	power      bool
	forwards   int // SpecResps sent by the current transaction
	depth      int // chain-depth estimate of the current transaction
}

// Collector consumes the machine's event stream (it implements
// machine.Tracer and machine.FaultTracer structurally) and aggregates
// it into metrics, a hot-line profile and chain topology, while retaining
// the raw events for the JSONL / Chrome exports.
//
// A Collector is per-run state and is NOT goroutine-safe: it mutates
// maps, slices and per-core bookkeeping on every event without locking.
// Attach each Collector to exactly one machine. Under the parallel
// sweep runner, build one Collector per cell (experiments.Params.Tracer
// is a factory for exactly this reason) — never share one across
// concurrently running simulations.
type Collector struct {
	Events  []Event
	Dropped uint64

	Reg *Registry

	hot   map[mem.Addr]*LineCounters
	cores []coreState

	chainEdges uint64
	maxDepth   int

	txCycles *stats.Histogram
	retries  *stats.Histogram
	vsbOcc   *stats.Histogram
	depth    *stats.Histogram
	fanOut   *stats.Histogram

	commits   *stats.Series
	aborts    *stats.Series
	forwards  *stats.Series
	conflicts *stats.Series
	nacks     *stats.Series

	opts Options
}

// New builds a Collector for a machine with the given core count.
func New(cores int, opts Options) *Collector {
	reg := NewRegistry(opts.Window)
	c := &Collector{
		Reg:   reg,
		hot:   make(map[mem.Addr]*LineCounters),
		cores: make([]coreState, cores),
		opts:  opts,

		txCycles: reg.Histogram("tx/cycles-per-commit", stats.ExpBounds(64, 2, 16)),
		retries:  reg.Histogram("tx/retries-per-commit", stats.LinearBounds(1, 1, 16)),
		vsbOcc:   reg.Histogram("vsb/occupancy", stats.LinearBounds(0, 1, 9)),
		depth:    reg.Histogram("chain/depth-at-forward", stats.LinearBounds(1, 1, 12)),
		fanOut:   reg.Histogram("chain/fanout-per-forwarder", stats.LinearBounds(1, 1, 12)),

		commits:   reg.Series("commits"),
		aborts:    reg.Series("aborts"),
		forwards:  reg.Series("forwards"),
		conflicts: reg.Series("conflicts"),
		nacks:     reg.Series("nack-retries"),
	}
	return c
}

func (c *Collector) record(e Event) {
	if c.opts.MaxEvents > 0 && len(c.Events) >= c.opts.MaxEvents {
		c.Dropped++
		return
	}
	c.Events = append(c.Events, e)
}

func (c *Collector) core(id int) *coreState {
	for id >= len(c.cores) { // tolerate cores discovered late (defensive)
		c.cores = append(c.cores, coreState{})
	}
	return &c.cores[id]
}

func (c *Collector) line(a mem.Addr) *LineCounters {
	a = a.Line()
	lc, ok := c.hot[a]
	if !ok {
		lc = &LineCounters{}
		c.hot[a] = lc
	}
	return lc
}

// endTx folds the per-transaction state into the histograms when an
// attempt finishes either way.
func (c *Collector) endTx(cs *coreState) {
	if cs.forwards > 0 {
		c.fanOut.Observe(uint64(cs.forwards))
	}
	cs.inTx = false
	cs.forwards = 0
	cs.depth = 0
}

// ---------- machine.Tracer ----------

func (c *Collector) TxBegin(cycle uint64, core, attempt int, power bool) {
	cs := c.core(core)
	cs.inTx = true
	cs.beginCycle = cycle
	cs.attempt = attempt
	cs.power = power
	cs.forwards = 0
	cs.depth = 0
	c.record(Event{Cycle: cycle, Kind: KindBegin, Core: core, Peer: -1, Attempt: attempt, Power: power})
}

func (c *Collector) TxCommit(cycle uint64, core int, consumed int) {
	cs := c.core(core)
	if cs.inTx {
		c.txCycles.Observe(cycle - cs.beginCycle)
		c.retries.Observe(uint64(cs.attempt))
	}
	c.commits.Add(cycle, 1)
	c.Reg.Counter("tx/commits").Inc()
	c.endTx(cs)
	c.record(Event{Cycle: cycle, Kind: KindCommit, Core: core, Peer: -1, Consumed: consumed})
}

func (c *Collector) TxAbort(cycle uint64, core int, cause htm.AbortCause) {
	c.aborts.Add(cycle, 1)
	c.Reg.Counter("tx/aborts/" + cause.String()).Inc()
	c.endTx(c.core(core))
	c.record(Event{Cycle: cycle, Kind: KindAbort, Core: core, Peer: -1, Cause: cause})
}

func (c *Collector) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {
	c.forwards.Add(cycle, 1)
	c.line(line).Forwards++
	c.chainEdges++
	// The producer's depth estimate propagates to the consumer exactly as
	// in ChainTracer.MaxChainDepth, but per live transaction, so the
	// distribution is not inflated by cores recycling across attempts.
	p, q := c.core(producer), c.core(requester)
	d := p.depth + 1
	if d > q.depth {
		q.depth = d
	}
	if q.depth > c.maxDepth {
		c.maxDepth = q.depth
	}
	c.depth.Observe(uint64(d))
	p.forwards++
	c.record(Event{Cycle: cycle, Kind: KindForward, Core: producer, Peer: requester,
		Line: line, HasLine: true, PiC: pic})
}

func (c *Collector) Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC) {
	c.line(line).Consumes++
	c.record(Event{Cycle: cycle, Kind: KindConsume, Core: core, Peer: -1,
		Line: line, HasLine: true, PiC: pic})
}

func (c *Collector) Validate(cycle uint64, core int, line mem.Addr, ok bool) {
	lc := c.line(line)
	lc.Validations++
	if ok {
		lc.ValidationsOK++
	}
	c.record(Event{Cycle: cycle, Kind: KindValidate, Core: core, Peer: -1,
		Line: line, HasLine: true, OK: ok})
}

func (c *Collector) Fallback(cycle uint64, core int) {
	c.Reg.Counter("tx/fallbacks").Inc()
	c.record(Event{Cycle: cycle, Kind: KindFallback, Core: core, Peer: -1})
}

func (c *Collector) Conflict(cycle uint64, holder, requester int, line mem.Addr, kind coherence.ProbeKind, dec htm.ProbeDecision) {
	c.conflicts.Add(cycle, 1)
	lc := c.line(line)
	lc.Conflicts++
	switch dec {
	case htm.DecideAbort:
		lc.Aborts++
	case htm.DecideNack:
		lc.Nacks++
	}
	c.Reg.Counter("conflict/" + dec.String()).Inc()
	c.record(Event{Cycle: cycle, Kind: KindConflict, Core: holder, Peer: requester,
		Line: line, HasLine: true, Probe: kind, Decision: dec})
}

func (c *Collector) NackRetry(cycle uint64, core int, line mem.Addr) {
	c.nacks.Add(cycle, 1)
	c.line(line).NackRetries++
	c.record(Event{Cycle: cycle, Kind: KindNack, Core: core, Peer: -1, Line: line, HasLine: true})
}

func (c *Collector) VSBOccupancy(cycle uint64, core, occ int) {
	c.vsbOcc.Observe(uint64(occ))
	c.record(Event{Cycle: cycle, Kind: KindVSB, Core: core, Peer: -1, Occ: occ})
}

// ---------- machine.FaultTracer ----------

// FaultInjected records one injected fault (core is -1 for faults not
// attributable to a core, e.g. network jitter).
func (c *Collector) FaultInjected(cycle uint64, core int, kind string) {
	c.Reg.Counter("fault/" + kind).Inc()
	c.record(Event{Cycle: cycle, Kind: KindFault, Core: core, Peer: -1, Fault: kind})
}
