package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/workloads"
)

// Regenerate with: go test ./internal/experiments -run TestGoldenStats -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json from the current simulator")

const goldenPath = "testdata/golden_stats.json"

// goldenCell pins one simulation: every RunStats field, and the heap
// allocations its Run made, which set the cell's allocation budget.
type goldenCell struct {
	Stats  machine.RunStats `json:"stats"`
	Allocs uint64           `json:"allocs"`
}

// goldenCells lists the pinned simulations by key: the main matrix
// (5 systems × 11 benchmarks) at tiny and at small size, which is the
// paper's Fig. 4 grid, and CHATS on the chaining-heavy benchmarks at 64
// and 256 cores, where the directory's sharer sets are widest.
func goldenCells() map[string]Cell {
	cells := make(map[string]Cell)
	for _, sz := range []workloads.Size{workloads.Tiny, workloads.Small} {
		for _, kind := range mainSystems() {
			for _, bench := range workloads.AllNames() {
				cells[fmt.Sprintf("%s/%s/%s", sz, kind, bench)] = Cell{
					System: kind, Bench: bench, Size: sz, Machine: machine.DefaultConfig(),
				}
			}
		}
	}
	for _, cores := range []int{64, 256} {
		for _, bench := range []string{"kmeans-l", "kmeans-h", "cadd"} {
			c := Cell{System: core.KindCHATS, Bench: bench, Size: workloads.Small, Machine: machine.DefaultConfig()}
			c.Machine.Cores = cores
			cells[fmt.Sprintf("%s/%s/%s/c%d", c.Size, c.System, bench, cores)] = c
		}
	}
	return cells
}

// allocBudget is the most allocations a cell's Run may make: its
// golden count plus 10%, plus absolute slack for runtime noise, which
// grows with the core count.
func allocBudget(golden uint64, cores int) uint64 {
	slack := uint64(5_000)
	if cores > machine.DefaultConfig().Cores {
		slack = 20_000
	}
	return golden + golden/10 + slack
}

// TestGoldenStats is the exact pin of simulated results. The simulator
// is bit-deterministic, so every cell must reproduce every RunStats
// field of the golden file; a mismatch means the simulated machine
// changed, and either the change is a bug or the file is regenerated
// deliberately (-update-golden) with the reason stated.
//
// It also keeps each cell's heap allocations within allocBudget. The
// cells run one at a time, because the count is process-wide. Under
// the race detector the counts mean nothing, and the test only smokes
// the Tiny CHATS cells for data races: the plain run compares every
// cell.
func TestGoldenStats(t *testing.T) {
	cells := goldenCells()
	smoke := fmt.Sprintf("%s/%s/", workloads.Tiny, core.KindCHATS)
	keys := make([]string, 0, len(cells))
	for k := range cells {
		if raceEnabled && !strings.HasPrefix(k, smoke) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := make(map[string]goldenCell, len(keys))
	for _, k := range keys {
		st, rec, err := RunCell(cells[k])
		if err != nil {
			t.Fatal(err)
		}
		got[k] = goldenCell{Stats: st, Allocs: rec.Allocs}
	}

	if *updateGolden {
		if raceEnabled {
			t.Fatal("-update-golden records allocation counts; run it without -race")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	if !raceEnabled && len(want) != len(got) {
		t.Errorf("golden file has %d cells, the test runs %d (stale file? -update-golden)", len(want), len(got))
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: cell missing from the golden file", k)
			continue
		}
		g := got[k]
		for _, d := range statsDiff(g.Stats, w.Stats) {
			t.Errorf("%s: %s", k, d)
		}
		if budget := allocBudget(w.Allocs, cells[k].Machine.Cores); !raceEnabled && g.Allocs > budget {
			t.Errorf("%s: %d allocations, budget %d (golden %d)", k, g.Allocs, budget, w.Allocs)
		}
	}
}

// statsDiff names every RunStats field in which got differs from want.
func statsDiff(got, want machine.RunStats) []string {
	var diffs []string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); gf != wf {
			diffs = append(diffs, fmt.Sprintf("%s %v, golden %v", g.Type().Field(i).Name, gf, wf))
		}
	}
	return diffs
}
