package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/randprog"
	"chats/internal/runstore"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// layerCounts accumulates what the traced pass observes from outside
// the program: RunStats fields, directory bank loads, the wrapper's
// Ctx/Tx call counts and timings, and the peak live heap.
type layerCounts struct {
	stats   machine.RunStats // summed counters; System/Workload unused
	dirReqs uint64

	ctxOps, blocks   uint64
	setupNS, checkNS int64

	heapPeak uint64
}

// fuzzProgram is one program the oracle checked, with what it recorded.
type fuzzProgram struct {
	label string
	prog  *randprog.Program
	recs  []runstore.Record
}

// observer is attached to the traced pass. Every method is a no-op on a
// nil observer, so the untraced passes run the same code with nothing
// recorded beyond the cell results.
type observer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span IDs
	tracer countingTracer
	counts layerCounts
	progs  []fuzzProgram
}

func newObserver(t0 time.Time) *observer { return &observer{t0: t0} }

// begin opens a span under the innermost open one. An empty cell
// inherits the parent's label.
func (o *observer) begin(name, cell string) int {
	if o == nil {
		return -1
	}
	parent := -1
	if n := len(o.open); n > 0 {
		parent = o.open[n-1]
		if cell == "" {
			cell = o.spans[parent].Cell
		}
	}
	id := len(o.spans)
	o.spans = append(o.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		StartNS: time.Since(o.t0).Nanoseconds()})
	o.open = append(o.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (o *observer) end(id int) {
	if o == nil {
		return
	}
	o.spans[id].EndNS = time.Since(o.t0).Nanoseconds()
	o.open = o.open[:len(o.open)-1]
}

// selfNS returns the total self time of the spans named name: each
// span's duration minus the part its children cover.
func (o *observer) selfNS(name string) int64 {
	child := make([]int64, len(o.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var self int64
	for _, s := range o.spans {
		if s.Name == name {
			self += s.EndNS - s.StartNS - child[s.ID]
		}
	}
	return self
}

// noteMachine folds one finished machine run into the layer counts.
func (o *observer) noteMachine(m *machine.Machine, st machine.RunStats, w *wrapped) {
	if o == nil {
		return
	}
	c := &o.counts
	s := &c.stats
	s.Cycles += st.Cycles
	s.Commits += st.Commits
	s.Aborts += st.Aborts
	s.Fallbacks += st.Fallbacks
	s.SpecRespsConsumed += st.SpecRespsConsumed
	s.Validations += st.Validations
	s.ValidationsOK += st.ValidationsOK
	s.Flits += st.Flits
	s.Messages += st.Messages
	s.L1Hits += st.L1Hits
	s.L1Misses += st.L1Misses
	s.DirFwds += st.DirFwds
	s.DirInvs += st.DirInvs
	s.ProbeConflicts += st.ProbeConflicts
	s.DecAbort += st.DecAbort
	s.DecSpec += st.DecSpec
	s.DecNack += st.DecNack
	s.NackRetries += st.NackRetries
	for _, b := range m.DirBankLoads() {
		c.dirReqs += b.Requests
	}
	for _, t := range w.ops {
		c.ctxOps += t.ops
		c.blocks += t.blocks
	}
	c.setupNS += w.setupNS
	c.checkNS += w.checkNS
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > c.heapPeak {
		c.heapPeak = ms.HeapAlloc
	}
}

// noteProgram keeps a checked fuzz program for the replay.
func (o *observer) noteProgram(label string, p *randprog.Program, recs []runstore.Record) {
	if o == nil {
		return
	}
	o.progs = append(o.progs, fuzzProgram{label: label, prog: p, recs: recs})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > o.counts.heapPeak {
		o.counts.heapPeak = ms.HeapAlloc
	}
}

// writeSpans writes every recorded span as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// threadOps counts one thread's workload-level calls.
type threadOps struct {
	ops    uint64 // Ctx and Tx Load/Store/Work calls plus Atomic calls
	blocks uint64 // Atomic calls
}

// wrapped is the wrapping Workload: it times Setup and Check and, on
// the traced pass, hands each thread a counting Ctx. Each thread
// counts into its own slot; Machine.Run waits for every thread before
// it returns, so the counts are safe to read afterwards.
type wrapped struct {
	machine.Workload
	obs *observer

	setupNS, checkNS int64
	ops              []threadOps
}

func (w *wrapped) Setup(world *machine.World, threads int) {
	sp := w.obs.begin("Workload.Setup", "")
	start := time.Now()
	w.Workload.Setup(world, threads)
	w.setupNS = time.Since(start).Nanoseconds()
	w.obs.end(sp)
	if w.obs != nil {
		w.ops = make([]threadOps, threads)
	}
}

func (w *wrapped) Thread(ctx machine.Ctx, tid int) {
	if w.obs == nil {
		w.Workload.Thread(ctx, tid)
		return
	}
	w.Workload.Thread(countingCtx{Ctx: ctx, n: &w.ops[tid]}, tid)
}

func (w *wrapped) Check(world *machine.World) error {
	sp := w.obs.begin("Workload.Check", "")
	start := time.Now()
	err := w.Workload.Check(world)
	w.checkNS = time.Since(start).Nanoseconds()
	w.obs.end(sp)
	return err
}

// countingCtx counts every Ctx call before passing it on.
type countingCtx struct {
	machine.Ctx
	n *threadOps
}

func (c countingCtx) Atomic(body func(tx machine.Tx)) {
	c.n.ops++
	c.n.blocks++
	c.Ctx.Atomic(func(tx machine.Tx) { body(countingTx{Tx: tx, n: c.n}) })
}

func (c countingCtx) Load(a mem.Addr) uint64     { c.n.ops++; return c.Ctx.Load(a) }
func (c countingCtx) Store(a mem.Addr, v uint64) { c.n.ops++; c.Ctx.Store(a, v) }
func (c countingCtx) Work(n uint64)              { c.n.ops++; c.Ctx.Work(n) }

// countingTx counts every Tx access inside an Atomic body.
type countingTx struct {
	machine.Tx
	n *threadOps
}

func (t countingTx) Load(a mem.Addr) uint64     { t.n.ops++; return t.Tx.Load(a) }
func (t countingTx) Store(a mem.Addr, v uint64) { t.n.ops++; t.Tx.Store(a, v) }
func (t countingTx) Work(n uint64)              { t.n.ops++; t.Tx.Work(n) }

// countingTracer attaches every Tracer/XTracer hook, which is the
// cost of an observed run, and counts commits to cross-check RunStats.
type countingTracer struct{ commits uint64 }

func (t *countingTracer) TxBegin(uint64, int, int, bool)                    {}
func (t *countingTracer) TxCommit(uint64, int, int)                         { t.commits++ }
func (t *countingTracer) TxAbort(uint64, int, htm.AbortCause)               {}
func (t *countingTracer) Forward(uint64, int, int, mem.Addr, coherence.PiC) {}
func (t *countingTracer) Consume(uint64, int, mem.Addr, coherence.PiC)      {}
func (t *countingTracer) Validate(uint64, int, mem.Addr, bool)              {}
func (t *countingTracer) Fallback(uint64, int)                              {}
func (t *countingTracer) NackRetry(uint64, int, mem.Addr)                   {}
func (t *countingTracer) VSBOccupancy(uint64, int, int)                     {}
func (t *countingTracer) Conflict(uint64, int, int, mem.Addr, coherence.ProbeKind, htm.ProbeDecision) {
}
