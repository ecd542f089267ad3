package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/runstore"
)

// CellBench records the cost of one simulation cell: simulated cycles,
// host wall clock, and heap allocations observed while it ran. Emitted
// by `chats-experiments -bench-json` so perf trajectories can be
// compared machine-readably across commits.
type CellBench struct {
	Cell        string `json:"cell"`
	SimCycles   uint64 `json:"simcycles"`
	WallclockNS int64  `json:"wallclock_ns"`
	Allocs      uint64 `json:"allocs"`
}

// BenchReport is the top-level -bench-json document.
type BenchReport struct {
	// Schema names the document layout so downstream tooling can detect
	// incompatible changes.
	Schema string `json:"schema"`
	// Commit, TimestampUTC and GoVersion identify the build the
	// trajectory was measured on (new in chats-bench/v2; empty when
	// reading v1 history).
	Commit       string `json:"commit,omitempty"`
	TimestampUTC string `json:"timestamp_utc,omitempty"`
	GoVersion    string `json:"go_version,omitempty"`
	// Workers is the -j value the sweep ran under. Note that with
	// Workers > 1 the per-cell Allocs and WallclockNS figures include
	// interference from concurrently running cells (Mallocs is a
	// process-wide counter); SimCycles is always exact.
	Workers          int         `json:"workers"`
	Size             string      `json:"size"`
	Runs             int         `json:"runs"`
	TotalWallclockNS int64       `json:"total_wallclock_ns"`
	Cells            []CellBench `json:"cells"`
}

// BenchSchema identifies the current BenchReport layout. v2 adds the
// commit/timestamp_utc/go_version header; readers (benchdiff, runstore
// import) keep accepting v1.
const BenchSchema = "chats-bench/v2"

// cellName builds the stable identifier a CellBench is reported under.
func cellName(kind core.Kind, traits *htm.Traits, bench string, seed uint64, labelSeed bool) string {
	name := fmt.Sprintf("%s/%s", kind, bench)
	if tk := traitsKey(traits); tk != "" {
		name += "/" + tk
	}
	if labelSeed {
		name += fmt.Sprintf("/seed=%d", seed)
	}
	return name
}

// ScaleBenchCores are the machine widths of the directory-scaling
// bench grid: 64 cores and the MaxCores ceiling, where directory
// occupancy is densest.
var ScaleBenchCores = []int{64, 256}

// scaleBenches are the grid's workloads: the chaining-heavy benches
// with the most directory traffic.
var scaleBenches = []string{"kmeans-l", "kmeans-h", "cadd"}

// RunScaleBench executes the directory-scaling bench grid: CHATS on
// every scale bench at each ScaleBenchCores width, cells labeled
// <system>/<bench>/c<cores>.
func RunScaleBench(p Params) ([]CellBench, int, error) {
	var cells []CellBench
	runs := 0
	for _, cores := range ScaleBenchCores {
		sp := p
		sp.Machine.Cores = cores
		s := NewSuite(sp)
		for _, bench := range scaleBenches {
			if _, err := s.Run(core.KindCHATS, nil, bench); err != nil {
				return nil, 0, err
			}
		}
		for _, cb := range s.BenchCells() {
			cb.Cell = fmt.Sprintf("%s/c%d", cb.Cell, cores)
			cells = append(cells, cb)
		}
		runs += s.Runs
	}
	return cells, runs, nil
}

// BenchCells returns a copy of the per-cell measurements collected so
// far.
func (s *Suite) BenchCells() []CellBench {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells := make([]CellBench, len(s.bench))
	copy(cells, s.bench)
	return cells
}

// WriteBenchJSON emits the bench trajectory of every simulation the
// suite has executed, sorted by cell name so the output is stable
// regardless of sweep scheduling. meta stamps the v2 header fields
// (runstore.NowMeta() for live runs).
func (s *Suite) WriteBenchJSON(w io.Writer, workers int, total time.Duration, meta runstore.Meta) error {
	s.mu.Lock()
	runs := s.Runs
	s.mu.Unlock()
	return WriteBenchCells(w, s.BenchCells(), workers, s.p.Size.String(), runs, total, meta)
}

// WriteBenchCells writes an explicit cell list as a -bench-json
// document — the seam shared by the suite writer and grids (like
// RunScaleBench) that collect cells across several suites.
func WriteBenchCells(w io.Writer, cells []CellBench, workers int, size string, runs int, total time.Duration, meta runstore.Meta) error {
	cells = append([]CellBench(nil), cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Cell < cells[j].Cell })
	rep := BenchReport{
		Schema:           BenchSchema,
		Commit:           meta.Commit,
		TimestampUTC:     meta.TimestampUTC,
		GoVersion:        meta.GoVersion,
		Workers:          workers,
		Size:             size,
		Runs:             runs,
		TotalWallclockNS: total.Nanoseconds(),
		Cells:            cells,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
