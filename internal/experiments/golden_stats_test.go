package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"chats/internal/workloads"
)

// Regenerate with: go test ./internal/experiments -run TestGoldenStats -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json from the current simulator")

// goldenCell pins one (system, bench) cell of the Tiny-size main
// matrix. Commits and fallbacks are exact (they count retired atomic
// blocks, which no timing change may alter); cycles and aborts carry
// tolerance bands so deliberate performance work can move them without
// churning the file, while a real regression still trips the gate.
type goldenCell struct {
	Commits   uint64 `json:"commits"`
	Fallbacks uint64 `json:"fallbacks"`
	Cycles    uint64 `json:"cycles"`
	Aborts    uint64 `json:"aborts"`
}

const (
	goldenPath     = "testdata/golden_stats.json"
	cycleTolerance = 0.10 // ±10%
	abortTolerance = 0.25 // ±25%
	abortSlack     = 5    // absolute slack for near-zero abort counts
)

func goldenKey(system, bench string) string { return system + "/" + bench }

func runGoldenMatrix(t *testing.T) map[string]goldenCell {
	t.Helper()
	s := tinySuite()
	got := make(map[string]goldenCell)
	for _, kind := range mainSystems() {
		for _, bench := range workloads.AllNames() {
			st, err := s.Run(kind, nil, bench)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, bench, err)
			}
			got[goldenKey(string(kind), bench)] = goldenCell{
				Commits:   st.Commits,
				Fallbacks: st.Fallbacks,
				Cycles:    st.Cycles,
				Aborts:    st.Aborts,
			}
		}
	}
	return got
}

func withinBand(got, want uint64, frac float64, slack uint64) bool {
	lo := uint64(float64(want) * (1 - frac))
	hi := uint64(float64(want)*(1+frac)) + slack
	if want > slack && lo > slack {
		lo -= slack
	} else {
		lo = 0
	}
	return got >= lo && got <= hi
}

// TestGoldenStats is the statistics regression gate: the Tiny-size
// main matrix (5 systems × 11 benchmarks) must reproduce the pinned
// per-cell commits/fallbacks exactly and land cycles/aborts inside the
// tolerance bands. The simulator is bit-deterministic, so a mismatch
// means the simulated machine's behavior changed — either regenerate
// the golden file deliberately (-update-golden) or explain the drift.
func TestGoldenStats(t *testing.T) {
	got := runGoldenMatrix(t)

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]goldenCell, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, matrix has %d (stale file? -update-golden)", len(want), len(got))
	}

	var failures []string
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: cell missing from matrix", key))
			continue
		}
		if g.Commits != w.Commits {
			failures = append(failures, fmt.Sprintf("%s: commits %d, golden %d", key, g.Commits, w.Commits))
		}
		if g.Fallbacks != w.Fallbacks {
			failures = append(failures, fmt.Sprintf("%s: fallbacks %d, golden %d", key, g.Fallbacks, w.Fallbacks))
		}
		if !withinBand(g.Cycles, w.Cycles, cycleTolerance, 0) {
			failures = append(failures, fmt.Sprintf("%s: cycles %d outside ±%.0f%% of golden %d",
				key, g.Cycles, cycleTolerance*100, w.Cycles))
		}
		if !withinBand(g.Aborts, w.Aborts, abortTolerance, abortSlack) {
			failures = append(failures, fmt.Sprintf("%s: aborts %d outside ±%.0f%%+%d of golden %d",
				key, g.Aborts, abortTolerance*100, abortSlack, w.Aborts))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}
