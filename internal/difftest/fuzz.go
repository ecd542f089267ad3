package difftest

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"time"

	"chats/internal/randprog"
	"chats/internal/runstore"
	"chats/internal/sweep"
)

// FuzzOptions configures a fuzzing campaign over a seed range.
type FuzzOptions struct {
	// Start is the first generator seed; N the number of programs.
	Start uint64
	N     int
	// Gen is the generator configuration for every program.
	Gen randprog.GenConfig
	// Check configures the per-program differential check.
	Check Options
	// Jobs bounds the programs checked in parallel (<= 0: GOMAXPROCS).
	// Results are bit-identical at any Jobs value.
	Jobs int
	// Minimize shrinks each failing program to a minimal reproducer.
	Minimize bool
	// MinimizeBudget caps candidate evaluations per reduction (0: 500).
	MinimizeBudget int
	// Budget, when non-zero, stops scheduling new seeds once the wall
	// clock exceeds it (already-started seeds finish). The set of seeds
	// actually run then depends on host speed, so fixed-N campaigns are
	// the reproducible mode; Report.Skipped says how many were cut.
	Budget time.Duration
	// Record, when non-nil, receives one runstore.Record per system run
	// of every checked program, with Record.Seed rewritten to the
	// program's generator seed (the campaign's axis; the fixed machine
	// seed is Check.Seed). Minimization re-runs are not recorded. Must
	// be safe for concurrent use at Jobs > 1.
	Record func(runstore.Record)
}

// Failure describes one program the oracle rejected.
type Failure struct {
	Seed    uint64 `json:"seed"`
	Spec    string `json:"spec"`
	Err     string `json:"err"`
	MinSpec string `json:"min_spec,omitempty"` // minimized reproducer
	MinOps  int    `json:"min_ops,omitempty"`
	MinErr  string `json:"min_err,omitempty"` // oracle error of the reproducer
}

// Report is the outcome of a campaign, in seed order.
type Report struct {
	Start    uint64    `json:"start"`
	Programs int       `json:"programs"`
	Ran      int       `json:"ran"`
	Skipped  int       `json:"skipped"` // cut by Budget
	Failures []Failure `json:"failures,omitempty"`
	// Digest hashes the system, simulated cycles, counters and abort
	// causes of every system run that completed, in (seed, system)
	// order, so it is the same at any Jobs and changes with any
	// simulated result.
	Digest string `json:"digest"`
}

// Ok reports a fully green campaign.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// Summary is a one-line human rendering.
func (r *Report) Summary() string {
	s := fmt.Sprintf("fuzz: %d/%d programs checked, %d failure(s)", r.Ran, r.Programs, len(r.Failures))
	if r.Skipped > 0 {
		s += fmt.Sprintf(", %d skipped by budget", r.Skipped)
	}
	return s
}

// Fuzz generates and differentially checks N programs. Every program
// is checked on every configured system even after a failure (the
// campaign reports all failures, not the first), and the report is
// assembled in seed order so output is deterministic at any Jobs.
func Fuzz(o FuzzOptions) *Report {
	if o.N <= 0 {
		o.N = 1
	}
	rep := &Report{Start: o.Start, Programs: o.N}
	var deadline time.Time
	if o.Budget > 0 {
		deadline = time.Now().Add(o.Budget)
	}
	type result struct {
		ran  bool
		fail *Failure
		runs []runSum
	}
	results := make([]result, o.N)
	sweep.MapAll(o.Jobs, o.N, nil, func(i int) error {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil // cut by budget; ran stays false
		}
		seed := o.Start + uint64(i)
		p := randprog.Generate(seed, o.Gen)
		results[i].ran = true
		forward := o.Check.Record
		if o.Record != nil {
			forward = func(r runstore.Record) {
				r.Seed = seed
				o.Record(r)
			}
		}
		check := o.Check
		check.Record = func(r runstore.Record) {
			results[i].runs = append(results[i].runs, runSum{r.System, recordSum(r)})
			if forward != nil {
				forward(r)
			}
		}
		err := Check(p, check)
		if err == nil {
			return nil
		}
		f := &Failure{Seed: seed, Spec: p.String(), Err: err.Error()}
		if o.Minimize {
			min := Minimize(p, func(q *randprog.Program) bool {
				return Check(q, o.Check) != nil
			}, o.MinimizeBudget)
			f.MinSpec = min.String()
			f.MinOps = min.NumOps()
			if merr := Check(min, o.Check); merr != nil {
				f.MinErr = merr.Error()
			}
		}
		results[i].fail = f
		return nil
	})
	d := fnv.New64a()
	for i, r := range results {
		sort.Slice(r.runs, func(a, b int) bool { return r.runs[a].system < r.runs[b].system })
		for _, run := range r.runs {
			putUint(d, o.Start+uint64(i))
			putString(d, run.system)
			putUint(d, run.sum)
		}
		if r.ran {
			rep.Ran++
		} else {
			rep.Skipped++
		}
		if r.fail != nil {
			rep.Failures = append(rep.Failures, *r.fail)
		}
	}
	rep.Digest = fmt.Sprintf("%016x", d.Sum64())
	return rep
}

// runSum is one system run of a campaign's program, as Digest hashes it.
type runSum struct {
	system string
	sum    uint64
}

// recordSum hashes a run record's simulated cycles, counters and abort
// causes, the maps in key order.
func recordSum(r runstore.Record) uint64 {
	h := fnv.New64a()
	putUint(h, r.SimCycles)
	for _, m := range []map[string]uint64{r.Counters, r.ByCause} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		putUint(h, uint64(len(keys)))
		for _, k := range keys {
			putString(h, k)
			putUint(h, m[k])
		}
	}
	return h.Sum64()
}

func putUint(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putString(h hash.Hash64, s string) {
	putUint(h, uint64(len(s)))
	h.Write([]byte(s))
}
