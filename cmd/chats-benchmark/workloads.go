package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/machine"
	"chats/internal/randprog"
	"chats/internal/runstore"
	"chats/internal/workloads"
)

// A cell is one unit of work the closed loop issues and waits for: one
// simulated machine run, or one random program through the
// differential oracle.
type cell interface {
	label() string
	run(seed uint64, obs *observer) cellResult
}

// runOutcome is one machine run inside a cell, kept for chats_speedup:
// runs of one group (a benchmark, or a fuzz program) on different
// systems are compared by their simulated cycles.
type runOutcome struct {
	group  string
	kind   core.Kind
	cycles uint64
}

// cellResult is what the loop reads back from a cell.
type cellResult struct {
	// digest hashes every simulated statistic the cell produced; a
	// host-only change must leave it bit-identical.
	digest [sha256.Size]byte
	runs   []runOutcome

	cycles                uint64 // simulated cycles, summed over machines
	events, waves, serial uint64 // engine counters (Machine.WaveStats)

	setupNS int64 // machine.New + Workload.Setup, or randprog.Generate
	runNS   int64 // host time inside Machine.Run

	err error
}

// workloadNames lists the workloads in catalogue order.
var workloadNames = []string{"stamp-grid", "llb", "scale256", "fuzz-oracle"}

// workloadWhy is the one-line rationale of each workload, as
// BENCHMARK.json states it.
var workloadWhy = map[string]string{
	"stamp-grid":  "the paper's Fig. 4 grid: 5 systems x 8 STAMP benches at 16 cores mixes misses, conflicts, forwarding, validation and fallback",
	"llb":         "linked-list traversals hit in L1, so one thread handoff per event dominates; read-mostly llb-l beside write-heavy llb-h",
	"scale256":    "baseline and CHATS at 256 cores: wide sharer sets, invalidation fan-out, network traffic and L1 gang-invalidation on abort dominate",
	"fuzz-oracle": "300 short random programs through the differential oracle: machine build, GC, tracer hooks, invariant checker and replay",
}

// fuzzPrograms is the number of random programs per fuzz-oracle pass.
const fuzzPrograms = 300

// newWorkload builds the named workload's cell list, issued in order
// once per pass. quick shrinks every cell to the tiny size (and the fuzz
// pass to a few programs) so tests can run each workload end to end in
// well under a second of simulation.
func newWorkload(name string, seed uint64, quick bool) ([]cell, error) {
	if _, ok := workloadWhy[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	size := func(s workloads.Size) workloads.Size {
		if quick {
			return workloads.Tiny
		}
		return s
	}
	var cells []cell
	grid := func(kinds []core.Kind, benches []string, sz workloads.Size, cores int) {
		for _, k := range kinds {
			for _, b := range benches {
				cells = append(cells, simCell{kind: k, bench: b, size: size(sz), cores: cores})
			}
		}
	}
	switch name {
	case "stamp-grid":
		grid(difftest.Systems(), workloads.STAMPNames(), workloads.Medium, 16)
	case "llb":
		grid([]core.Kind{core.KindBaseline, core.KindCHATS}, []string{"llb-l", "llb-h"}, workloads.Small, 16)
	case "scale256":
		grid([]core.Kind{core.KindBaseline, core.KindCHATS}, []string{"kmeans-h", "cadd"}, workloads.Small, 256)
	case "fuzz-oracle":
		n := fuzzPrograms
		if quick {
			n = 6
		}
		for i := 0; i < n; i++ {
			cells = append(cells, fuzzCell{genSeed: seed + uint64(i)})
		}
	}
	return cells, nil
}

// simCell runs one benchmark on one system.
type simCell struct {
	kind  core.Kind
	bench string
	size  workloads.Size
	cores int
}

func (c simCell) label() string {
	return fmt.Sprintf("%s/%s/%s/c%d", c.kind, c.bench, c.size, c.cores)
}

func (c simCell) run(seed uint64, obs *observer) cellResult {
	sp := obs.begin("cell", c.label())
	defer obs.end(sp)
	w, err := workloads.New(c.bench, c.size)
	if err != nil {
		return cellResult{err: err}
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = c.cores
	cfg.Seed = seed
	return runMachine(c.bench, c.kind, cfg, w, obs)
}

// runMachine builds one machine, runs w on it and reads back its
// statistics. Every layer is timed from here, around the public calls.
func runMachine(group string, kind core.Kind, cfg machine.Config, w machine.Workload, obs *observer) cellResult {
	policy, err := core.New(kind)
	if err != nil {
		return cellResult{err: err}
	}
	sp := obs.begin("machine.New", "")
	start := time.Now()
	m, err := machine.New(cfg, policy)
	newNS := time.Since(start).Nanoseconds()
	obs.end(sp)
	if err != nil {
		return cellResult{err: err}
	}
	ww := &wrapped{Workload: w, obs: obs}
	if obs != nil {
		m.SetTracer(&obs.tracer)
	}
	sp = obs.begin("Machine.Run", "")
	start = time.Now()
	st, err := m.Run(ww)
	runNS := time.Since(start).Nanoseconds()
	obs.end(sp)

	r := cellResult{
		digest:  sha256.Sum256([]byte(fmt.Sprintf("%+v", st))),
		runs:    []runOutcome{{group: group, kind: kind, cycles: st.Cycles}},
		cycles:  st.Cycles,
		setupNS: newNS + ww.setupNS,
		runNS:   runNS,
		err:     err,
	}
	r.events, r.waves, r.serial = m.WaveStats()
	obs.noteMachine(m, st, ww)
	return r
}

// fuzzGen is chatsim's fuzz preset: the small generator with plain
// stores mixed into the commutative adds.
func fuzzGen() randprog.GenConfig {
	g := randprog.Preset(int(workloads.Small))
	g.AddFrac = 0.5
	return g
}

// fuzzCell generates one random program and checks it on the five paper
// systems with the full oracle stack (invariants on).
type fuzzCell struct{ genSeed uint64 }

func (c fuzzCell) label() string { return fmt.Sprintf("randprog/seed=%d", c.genSeed) }

func (c fuzzCell) run(_ uint64, obs *observer) cellResult {
	sp := obs.begin("program", c.label())
	defer obs.end(sp)

	gsp := obs.begin("randprog.Generate", "")
	start := time.Now()
	p := randprog.Generate(c.genSeed, fuzzGen())
	r := cellResult{setupNS: time.Since(start).Nanoseconds()}
	obs.end(gsp)

	var recs []runstore.Record
	csp := obs.begin("difftest.Check", "")
	r.err = difftest.Check(p, difftest.Options{Record: func(rec runstore.Record) { recs = append(recs, rec) }})
	obs.end(csp)

	h := sha256.New()
	for _, rec := range recs {
		// %v prints maps in key order, so the text is deterministic.
		fmt.Fprintf(h, "%s %d %v %v\n", rec.System, rec.SimCycles, rec.Counters, rec.ByCause)
		r.runs = append(r.runs, runOutcome{group: c.label(), kind: core.Kind(rec.System), cycles: rec.SimCycles})
		r.cycles += rec.SimCycles
		r.events += rec.WaveEvents
		r.waves += rec.Waves
		r.serial += rec.SerialEvents
		r.runNS += rec.WallclockNS
	}
	if r.err != nil {
		fmt.Fprintf(h, "error: %v\n", r.err)
	}
	h.Sum(r.digest[:0])
	obs.noteProgram(c.label(), p, recs)
	return r
}

// replayCells rebuilds, outside the oracle, every machine the oracle
// ran for the given programs. difftest reports only part of RunStats
// and hides its workload, so the fuzz-oracle layer counts come from
// these replays; each replay must reproduce the cycles the oracle
// recorded.
func replayCells(progs []fuzzProgram) []cell {
	var cells []cell
	for _, fp := range progs {
		for _, rec := range fp.recs {
			cells = append(cells, replayCell{program: fp.label, prog: fp.prog, kind: core.Kind(rec.System), want: rec.SimCycles})
		}
	}
	return cells
}

// replayCell is one system run of a fuzz program, rebuilt with
// difftest's machine configuration.
type replayCell struct {
	program string // the fuzz cell's label
	prog    *randprog.Program
	kind    core.Kind
	want    uint64
}

func (c replayCell) label() string { return fmt.Sprintf("replay/%s/%s", c.program, c.kind) }

func (c replayCell) run(_ uint64, obs *observer) cellResult {
	sp := obs.begin("cell", c.label())
	defer obs.end(sp)
	cfg := machine.DefaultConfig()
	cfg.CycleLimit = 200_000_000 // difftest's default machine
	cfg.Cores = c.prog.Cores
	r := runMachine(c.label(), c.kind, cfg, randprog.NewWorkload(c.prog), obs)
	if r.err == nil && r.cycles != c.want {
		r.err = fmt.Errorf("replay of %s ran %d cycles, the oracle recorded %d", c.kind, r.cycles, c.want)
	}
	return r
}

// chatsSpeedup is the geometric mean, over groups run on both systems,
// of baseline cycles / CHATS cycles.
func chatsSpeedup(cells []cellResult) (float64, int) {
	base := map[string]uint64{}
	chats := map[string]uint64{}
	for _, c := range cells {
		for _, r := range c.runs {
			switch r.kind {
			case core.KindBaseline:
				base[r.group] = r.cycles
			case core.KindCHATS:
				chats[r.group] = r.cycles
			}
		}
	}
	var ratios []float64
	groups := make([]string, 0, len(base))
	for g := range base {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		if c, ok := chats[g]; ok && c > 0 && base[g] > 0 {
			ratios = append(ratios, float64(base[g])/float64(c))
		}
	}
	return geomean(ratios), len(ratios)
}
