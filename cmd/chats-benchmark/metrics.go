package main

import (
	"math"
	"sort"
)

// metricDef is one catalogue entry, as BENCHMARK.json lists it. bound
// applies to end-to-end metrics only: the share of the parent's median
// by which the metric may worsen before a change is rejected.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
//
// The host-time bounds are wide because the host's speed drifts: ten
// consecutive runs on a shared 2-CPU VM spread by up to 21% between
// quartiles (see README.md). chats_speedup repeats exactly for a seed;
// its bound covers the spread across seeds (5% on scale256).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"mcycles_per_s", "Mcycles/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"chats_speedup", "x", "higher", 0.20},
}

// perLayer are the metrics of single layers, measured by the traced
// run. Layers are named after the packages.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.events_per_wave", "ratio", "higher", 0},
	{"sim.serial_frac", "ratio", "lower", 0},
	{"sim.schedule_fire_ns", "ns", "lower", 0},

	{"machine.ctx_ops", "count", "lower", 0},
	{"machine.ops_per_event", "ratio", "higher", 0},
	{"machine.run_self_ms", "ms", "lower", 0},
	{"machine.run_frac", "ratio", "higher", 0},
	{"machine.attempts_per_block", "ratio", "lower", 0},
	{"machine.handoff_ns", "ns", "lower", 0},
	{"machine.empty_tx_ns", "ns", "lower", 0},
	{"machine.tx4_ns", "ns", "lower", 0},
	{"machine.new_c16_ms", "ms", "lower", 0},
	{"machine.new_c256_ms", "ms", "lower", 0},

	{"cache.l1_accesses", "count", "lower", 0},
	{"cache.l1_hit_ratio", "ratio", "higher", 0},
	{"cache.lookup_ns", "ns", "lower", 0},
	{"cache.insert_evict_ns", "ns", "lower", 0},
	{"cache.gang_invalidate_ns", "ns", "lower", 0},

	{"mem.read_word_ns", "ns", "lower", 0},

	{"coherence.dir_requests", "count", "lower", 0},
	{"coherence.dir_fwds", "count", "lower", 0},
	{"coherence.dir_invs", "count", "lower", 0},
	{"coherence.nack_retries", "count", "lower", 0},
	{"coherence.gets_ns", "ns", "lower", 0},
	{"coherence.getx_inv_ns", "ns", "lower", 0},

	{"network.messages", "count", "lower", 0},
	{"network.flits_per_kcycle", "flits/kcycle", "lower", 0},
	{"network.send_ns", "ns", "lower", 0},

	{"htm.commits", "count", "higher", 0},
	{"htm.aborts", "count", "lower", 0},
	{"htm.abort_rate", "ratio", "lower", 0},
	{"htm.fallbacks", "count", "lower", 0},
	{"htm.spec_consumed", "count", "higher", 0},
	{"htm.validation_ok_ratio", "ratio", "higher", 0},
	{"htm.vsb_ns", "ns", "lower", 0},

	{"core.probe_conflicts", "count", "lower", 0},
	{"core.dec_spec_frac", "ratio", "higher", 0},
	{"core.dec_abort", "count", "lower", 0},
	{"core.dec_nack", "count", "lower", 0},

	{"workloads.setup_ms", "ms", "lower", 0},
	{"workloads.check_ms", "ms", "lower", 0},

	{"randprog.generate_us", "us", "lower", 0},
	{"difftest.ms_per_program", "ms", "lower", 0},

	{"runtime.allocs_per_mcycle", "allocs/Mcycle", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.heap_peak_mb", "MiB", "lower", 0},

	{"ledger.explained_frac", "ratio", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// paperSpeedup is the only accuracy reference the repository holds: the
// paper's Fig. 4 average, CHATS about 22% less execution time than
// requester-wins, i.e. about 1.28x.
const paperSpeedup = 1.28

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// catalogue renders values for every metric of defs, in their units.
// A missing value is a bug in the caller, so it panics.
func catalogue(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("metric " + d.Name + " has no value")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
