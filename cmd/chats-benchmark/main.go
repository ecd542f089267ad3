// Command chats-benchmark times the simulator end to end and layer by
// layer on four fixed workloads.
//
//	chats-benchmark -workload stamp-grid -seed 1 -seconds 15 -trace 0
//
// The load is a closed loop with one client: a single goroutine issues
// the workload's cells one at a time, each starting after the previous
// one returns. A run is one untimed warm-up pass (also the reference
// for the simulated-results digest) followed by timed passes of the
// same cell list until -seconds have elapsed. With -trace 0 the last
// line of standard output holds the end-to-end metrics; with -trace 1
// the timed passes alternate untraced and traced, the layer
// microbenchmarks run afterwards, the spans are written to -spans, and
// the last line holds the per-layer metrics. The line before it holds
// the host fingerprint and the simulated-results digest.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "chats-benchmark:", err)
		}
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	// quick shrinks every cell to the tiny size; tests only.
	quick bool
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("chats-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed (>= 1): machine seed, or first random-program seed for fuzz-oracle")
	fs.Float64Var(&c.seconds, "seconds", 15, "host seconds of timed passes after the warm-up pass (at least one pass runs)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and spans")
	fs.StringVar(&c.spans, "spans", "", "span file written with -trace 1 (default .bench_build/chats-benchmark/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloadWhy[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q (known: %v)", c.workload, workloadNames)
	}
	if c.seed == 0 {
		return c, fmt.Errorf("seed must be at least 1")
	}
	if !(c.seconds > 0) || c.seconds > 600 {
		return c, fmt.Errorf("seconds must be in (0, 600], got %v", c.seconds)
	}
	switch trace {
	case 0:
	case 1:
		c.trace = true
	default:
		return c, fmt.Errorf("trace must be 0 or 1, got %d", trace)
	}
	if c.spans == "" {
		c.spans = filepath.Join(".bench_build", "chats-benchmark", "spans-"+c.workload+".json")
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	cells, err := newWorkload(cfg.workload, cfg.seed, cfg.quick)
	if err != nil {
		return err
	}
	res, err := measure(cfg, cells, stderr)
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// passResult is one pass over the cell list.
type passResult struct {
	wallNS int64
	cells  []cellResult
}

// totals sums the pass's cell results.
func (p passResult) totals() (t cellResult) {
	for _, c := range p.cells {
		t.cycles += c.cycles
		t.events += c.events
		t.waves += c.waves
		t.serial += c.serial
		t.setupNS += c.setupNS
		t.runNS += c.runNS
	}
	return t
}

// bench carries one run's state: the cell list, the warm-up reference
// and the failure tally.
type bench struct {
	cfg               config
	cells             []cell
	log               io.Writer
	ref               []cellResult // warm-up pass: the digest reference
	attempted, failed int
}

// pass issues every cell once, in order, each after the previous one
// returned, and checks each result: a cell fails on an error, or when
// ref is given, on simulated results that differ from ref's.
func (b *bench) pass(name string, cells []cell, ref []cellResult, obs *observer) passResult {
	sp := obs.begin("pass", "")
	start := time.Now()
	res := make([]cellResult, len(cells))
	for i, c := range cells {
		res[i] = c.run(b.cfg.seed, obs)
	}
	wall := time.Since(start).Nanoseconds()
	obs.end(sp)
	for i, r := range res {
		b.attempted++
		switch {
		case r.err != nil:
			b.failed++
			fmt.Fprintf(b.log, "%s: cell %s failed: %v\n", name, cells[i].label(), r.err)
		case ref != nil && r.digest != ref[i].digest:
			b.failed++
			fmt.Fprintf(b.log, "%s: cell %s: simulated results differ from the warm-up pass\n", name, cells[i].label())
		}
	}
	return passResult{wallNS: wall, cells: res}
}

// result is everything one run prints.
type result struct {
	header  header
	correct bool
	metrics map[string]metricValue
	// attempted and failed count cell runs over every pass.
	attempted, failed int
}

// header is the line printed before the result: the host fingerprint,
// the run's shape and the simulated-results digest. It is information,
// not a gated metric.
type header struct {
	Host       fingerprint `json:"host"`
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Trace      bool        `json:"trace"`
	Cells      int         `json:"cells_per_pass"`
	Passes     int         `json:"timed_passes"`
	SimDigest  string      `json:"sim_digest"`
	FailFrac   float64     `json:"fail_frac"`
	WallSMax   float64     `json:"wall_s_max"`
	PassWalls  []float64   `json:"pass_wall_s"`
	Speedup    float64     `json:"chats_speedup"`
	SpeedupOf  int         `json:"chats_speedup_groups"`
	PaperRef   float64     `json:"paper_fig4_speedup"`
	SpansFile  string      `json:"spans_file,omitempty"`
	SpansCount int         `json:"spans,omitempty"`
}

func (r *result) print(w io.Writer) error {
	h, err := json.Marshal(r.header)
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", h, out)
	return err
}

// measure runs the workload's cells and computes its metrics. A failing
// cell is counted and reported on log; it does not stop the run.
func measure(cfg config, cells []cell, log io.Writer) (*result, error) {
	t0 := time.Now()
	b := &bench{cfg: cfg, cells: cells, log: log}
	warm := b.pass("warm-up", cells, nil, nil)
	b.ref = warm.cells

	speedup, groups := chatsSpeedup(warm.cells)
	res := &result{header: header{
		Host:      hostFingerprint(),
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     cfg.trace,
		Cells:     len(cells),
		SimDigest: passDigest(warm.cells),
		Speedup:   speedup,
		SpeedupOf: groups,
		PaperRef:  paperSpeedup,
	}}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var values map[string]float64
	var timed []passResult
	var err error
	if cfg.trace {
		values, timed, err = b.traced(t0, budget, &res.header)
		if err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		for len(timed) == 0 || time.Since(start) < budget {
			timed = append(timed, b.pass(fmt.Sprintf("pass %d", len(timed)+1), cells, b.ref, nil))
		}
		if values, err = endToEndValues(timed, speedup); err != nil {
			return nil, err
		}
	}

	for _, p := range timed {
		res.header.PassWalls = append(res.header.PassWalls, float64(p.wallNS)/1e9)
		res.header.WallSMax = max(res.header.WallSMax, float64(p.wallNS)/1e9)
	}
	res.header.Passes = len(timed)
	res.header.FailFrac = ratio(float64(b.failed), float64(b.attempted))
	res.attempted, res.failed = b.attempted, b.failed
	res.correct = b.failed == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.metrics = catalogue(defs, values)
	return res, nil
}

// endToEndValues computes the end-to-end metrics from untraced passes.
func endToEndValues(passes []passResult, speedup float64) (map[string]float64, error) {
	var walls, setups []float64
	var cycles, wallNS float64
	for _, p := range passes {
		t := p.totals()
		walls = append(walls, float64(p.wallNS)/1e9)
		setups = append(setups, float64(t.setupNS)/1e9)
		cycles += float64(t.cycles)
		wallNS += float64(p.wallNS)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"wall_s":        median(walls),
		"mcycles_per_s": ratio(cycles/1e6, wallNS/1e9),
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
		"chats_speedup": speedup,
	}, nil
}

// traced alternates untraced and traced passes until the budget is
// spent, replays the fuzz programs' machines, runs the layer
// microbenchmarks and writes the spans. It returns the per-layer
// metrics and the untraced passes.
func (b *bench) traced(t0 time.Time, budget time.Duration, h *header) (map[string]float64, []passResult, error) {
	var untraced, traced []passResult
	var spans []span
	var layers *observer
	var msBefore, msAfter runtime.MemStats
	var mallocs, gcs uint64
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget {
		runtime.ReadMemStats(&msBefore)
		untraced = append(untraced, b.pass(fmt.Sprintf("untraced pass %d", len(untraced)+1), b.cells, b.ref, nil))
		runtime.ReadMemStats(&msAfter)
		mallocs += msAfter.Mallocs - msBefore.Mallocs
		gcs += uint64(msAfter.NumGC - msBefore.NumGC)

		obs := newObserver(t0)
		traced = append(traced, b.pass(fmt.Sprintf("traced pass %d", len(traced)+1), b.cells, b.ref, obs))
		if layers == nil {
			layers = obs
		} else {
			spans = append(spans, obs.spans...)
		}
	}
	if len(layers.progs) > 0 {
		sp := layers.begin("replay", "")
		b.pass("replay", replayCells(layers.progs), nil, layers)
		layers.end(sp)
	}
	if layers.tracer.commits != layers.counts.stats.Commits {
		b.attempted++
		b.failed++
		fmt.Fprintf(b.log, "tracer saw %d commits, RunStats counted %d\n",
			layers.tracer.commits, layers.counts.stats.Commits)
	}
	spans = append(layers.spans, spans...)

	v := map[string]float64{}
	for _, m := range micros {
		n := m.iters
		if b.cfg.quick {
			n = max(1, n/100)
		}
		x, err := m.measure(n)
		if err != nil {
			return nil, nil, err
		}
		v[m.metric] = x
	}

	var uWalls, tWalls []float64
	var uCycles, uRunNS, uWallNS float64
	for _, p := range untraced {
		t := p.totals()
		uWalls = append(uWalls, float64(p.wallNS))
		uCycles += float64(t.cycles)
		uRunNS += float64(t.runNS)
		uWallNS += float64(p.wallNS)
	}
	for _, p := range traced {
		tWalls = append(tWalls, float64(p.wallNS))
	}
	wall := median(uWalls) // ns
	// Engine counts repeat exactly in every pass; read the warm-up's.
	sum := passResult{cells: b.ref}.totals()
	c := layers.counts
	st := c.stats
	events := float64(sum.events)
	l1 := float64(st.L1Hits + st.L1Misses)

	v["sim.events"] = events
	v["sim.ns_per_event"] = ratio(wall, events)
	v["sim.events_per_wave"] = ratio(events, float64(sum.waves))
	v["sim.serial_frac"] = ratio(float64(sum.serial), events)
	v["machine.ctx_ops"] = float64(c.ctxOps)
	v["machine.ops_per_event"] = ratio(float64(c.ctxOps), events)
	v["machine.run_self_ms"] = float64(layers.selfNS("Machine.Run")) / 1e6
	v["machine.run_frac"] = ratio(uRunNS, uWallNS)
	v["machine.attempts_per_block"] = ratio(float64(st.Commits+st.Aborts+st.Fallbacks), float64(c.blocks))
	v["cache.l1_accesses"] = l1
	v["cache.l1_hit_ratio"] = ratio(float64(st.L1Hits), l1)
	v["coherence.dir_requests"] = float64(c.dirReqs)
	v["coherence.dir_fwds"] = float64(st.DirFwds)
	v["coherence.dir_invs"] = float64(st.DirInvs)
	v["coherence.nack_retries"] = float64(st.NackRetries)
	v["network.messages"] = float64(st.Messages)
	v["network.flits_per_kcycle"] = ratio(float64(st.Flits), float64(st.Cycles)/1e3)
	v["htm.commits"] = float64(st.Commits)
	v["htm.aborts"] = float64(st.Aborts)
	v["htm.abort_rate"] = ratio(float64(st.Aborts), float64(st.Commits+st.Aborts))
	v["htm.fallbacks"] = float64(st.Fallbacks)
	v["htm.spec_consumed"] = float64(st.SpecRespsConsumed)
	v["htm.validation_ok_ratio"] = ratio(float64(st.ValidationsOK), float64(st.Validations))
	v["core.probe_conflicts"] = float64(st.ProbeConflicts)
	v["core.dec_spec_frac"] = ratio(float64(st.DecSpec), float64(st.ProbeConflicts))
	v["core.dec_abort"] = float64(st.DecAbort)
	v["core.dec_nack"] = float64(st.DecNack)
	v["workloads.setup_ms"] = float64(c.setupNS) / 1e6
	v["workloads.check_ms"] = float64(c.checkNS) / 1e6
	v["runtime.allocs_per_mcycle"] = ratio(float64(mallocs), uCycles/1e6)
	v["runtime.gc_cycles"] = float64(gcs) / float64(len(untraced))
	runtime.ReadMemStats(&msAfter)
	v["runtime.gc_cpu_frac"] = msAfter.GCCPUFraction
	v["runtime.heap_peak_mb"] = float64(c.heapPeak) / (1 << 20)
	v["ledger.explained_frac"] = ratio(float64(c.ctxOps)*v["machine.handoff_ns"]+
		events*v["sim.schedule_fire_ns"]+
		l1*v["cache.lookup_ns"]+
		float64(c.dirReqs)*v["coherence.gets_ns"]+
		float64(st.Messages)*v["network.send_ns"], wall)
	v["trace.overhead_frac"] = ratio(median(tWalls), wall) - 1

	if err := writeSpans(b.cfg.spans, spans); err != nil {
		return nil, nil, err
	}
	h.SpansFile = b.cfg.spans
	h.SpansCount = len(spans)
	return v, untraced, nil
}
