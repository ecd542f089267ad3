package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/workloads"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the binary:
// the same workloads, metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/chats-benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, binary has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d = %+v, binary has %s: %q", i, w, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, binary has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d = %+v, binary has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest end-to-end bound %v", setupBound, maxBound)
	}
}

// runQuick measures w at the quick scale with one timed pass.
func runQuick(t *testing.T, name string, trace bool, cells []cell) (*result, string) {
	t.Helper()
	cfg := config{workload: name, seed: 1, seconds: 1e-9, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.json"), quick: true}
	var log bytes.Buffer
	res, err := measure(cfg, cells, &log)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return res, log.String()
}

// TestWorkloadsEmitCatalogue runs every workload at the quick scale,
// untraced and traced, and checks each prints every catalogue metric
// with its unit and no cell fails.
func TestWorkloadsEmitCatalogue(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cells, err := newWorkload(name, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			res, log := runQuick(t, name, trace, cells)
			if res.failed != 0 || !res.correct || res.header.FailFrac != 0 {
				t.Errorf("%s (trace %v): %d of %d cells failed:\n%s", name, trace, res.failed, res.attempted, log)
			}
			if res.header.Passes != 1 {
				t.Errorf("%s: %d timed passes, want 1", name, res.header.Passes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.metrics) != len(defs) {
				t.Errorf("%s: %d metrics, catalogue has %d", name, len(res.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %+v, ok %v", name, d.Name, v, ok)
				}
			}
			if trace {
				if _, err := os.Stat(res.header.SpansFile); err != nil || res.header.SpansCount == 0 {
					t.Errorf("%s: spans file %q (%d spans): %v", name, res.header.SpansFile, res.header.SpansCount, err)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
				t.Errorf("%s: last line %q: %v", name, lines[len(lines)-1], err)
			}
		}
	}
}

// TestDigestRepeats: two runs of one workload and seed simulate the
// same results, and the traced pass matches the untraced ones.
func TestDigestRepeats(t *testing.T) {
	var digests []string
	for _, trace := range []bool{false, true} {
		cells, err := newWorkload("llb", 3, true)
		if err != nil {
			t.Fatal(err)
		}
		res, log := runQuick(t, "llb", trace, cells)
		if res.failed != 0 {
			t.Fatalf("%d cells failed:\n%s", res.failed, log)
		}
		digests = append(digests, res.header.SimDigest)
	}
	if digests[0] != digests[1] || digests[0] == "" {
		t.Errorf("digests %v differ", digests)
	}
}

// badCheck is a workload whose final check always fails.
type badCheck struct{ machine.Workload }

func (badCheck) Check(*machine.World) error { return errors.New("planted check failure") }

type badCell struct{}

func (badCell) label() string { return "chats/cadd-bad-check" }

func (badCell) run(seed uint64, obs *observer) cellResult {
	w, err := workloads.New("cadd", workloads.Tiny)
	if err != nil {
		return cellResult{err: err}
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.Seed = seed
	return runMachine("cadd", core.KindCHATS, cfg, badCheck{w}, obs)
}

// TestFailingCheckCountsAsFailure: a workload whose Check fails raises
// the failure count; the run itself completes.
func TestFailingCheckCountsAsFailure(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cells := []cell{
			badCell{},
			simCell{kind: core.KindCHATS, bench: "cadd", size: workloads.Tiny, cores: 4},
		}
		res, log := runQuick(t, "bad", trace, cells)
		if res.correct || res.failed == 0 || res.header.FailFrac <= 0 {
			t.Errorf("trace %v: failed %d, fail_frac %v, correct %v", trace, res.failed, res.header.FailFrac, res.correct)
		}
		if res.failed*2 != res.attempted {
			t.Errorf("trace %v: %d of %d cells failed, want exactly the bad half", trace, res.failed, res.attempted)
		}
		if !strings.Contains(log, "planted check failure") || !strings.Contains(log, "cadd-bad-check") {
			t.Errorf("log does not name the failing cell:\n%s", log)
		}
	}
}

// TestBadArgumentsAreErrors: bad input is an error, never a panic, and
// prints no result.
func TestBadArgumentsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "llb", "-seconds", "0"},
		{"-workload", "llb", "-seconds", "-3"},
		{"-workload", "llb", "-seconds", "NaN"},
		{"-workload", "llb", "-seed", "0"},
		{"-workload", "llb", "-seed", "-1"},
		{"-workload", "llb", "-seed", "abc"},
		{"-workload", "llb", "-trace", "2"},
		{"-workload", "llb", "extra"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, stdout.String())
		}
	}
}

// TestSelfTime: a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	o := &observer{spans: []span{
		{ID: 0, Parent: -1, Name: "Machine.Run", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "Workload.Setup", StartNS: 0, EndNS: 10},
		{ID: 2, Parent: 0, Name: "Workload.Check", StartNS: 90, EndNS: 100},
		{ID: 3, Parent: -1, Name: "Machine.Run", StartNS: 200, EndNS: 250},
	}}
	if got := o.selfNS("Machine.Run"); got != 130 {
		t.Errorf("self time %d, want 130", got)
	}
}
