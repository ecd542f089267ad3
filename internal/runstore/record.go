// Package runstore is the simulator's embedded run database: a
// zero-external-dependency, append-only store that gives every sweep
// cell, bench run, fuzz campaign and fault soak a permanent, queryable
// home keyed by (commit, seed, config, system, workload).
//
// On disk a store is a directory of JSONL segment files
// (seg-000001.jsonl, ...), one JSON record per line, appended and
// flushed per run — recording happens per completed simulation, never
// per event, so it adds nothing to the simulation hot path. Opening a
// store replays every segment into an in-memory index; a torn tail
// record (the only corruption a crash mid-append can produce) is
// detected and truncated away, so the store always reopens cleanly with
// every fully-written run intact.
package runstore

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Meta identifies the build a batch of records was produced by. The
// same stamp is shared by every record of one CLI invocation.
type Meta struct {
	// Commit is the VCS revision the binary was built from (the
	// cross-commit trend axis).
	Commit string `json:"commit"`
	// TimestampUTC is the RFC 3339 recording time.
	TimestampUTC string `json:"timestamp_utc"`
	// GoVersion is runtime.Version() of the recording process.
	GoVersion string `json:"go_version"`
}

// NowMeta stamps the current commit, wall-clock time and Go version.
func NowMeta() Meta {
	return Meta{
		Commit:       CurrentCommit(),
		TimestampUTC: time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
	}
}

// CurrentCommit resolves the commit label for new records: the
// CHATS_COMMIT environment variable if set (CI pins it), else git
// rev-parse, else "unknown". Never fails — an unlabelled record beats a
// lost one.
func CurrentCommit() string {
	if c := strings.TrimSpace(os.Getenv("CHATS_COMMIT")); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err == nil {
		if c := strings.TrimSpace(string(out)); c != "" {
			return c
		}
	}
	return "unknown"
}

// Key is the identity a run is stored and queried under.
type Key struct {
	Commit   string `json:"commit"`
	Seed     uint64 `json:"seed"`
	Config   string `json:"config"`
	System   string `json:"system"`
	Workload string `json:"workload"`
}

// Record is one persisted run. The flat cost fields (SimCycles,
// WallclockNS, Allocs) mirror the chats-bench cell schema; Counters and
// ByCause carry the full RunStats breakdown; the optional telemetry
// fields (Hists, Series, HotLines, Chain) hold the drill-down reports
// when a run was recorded with a collector attached.
//
// Every field round-trips bit-exactly through the JSONL encoding
// (pinned by TestRecordRoundTrip).
type Record struct {
	// ID is assigned by Store.Append: strictly increasing, unique within
	// a store directory.
	ID uint64 `json:"id"`
	Meta
	Seed     uint64 `json:"seed"`
	System   string `json:"system"`
	Workload string `json:"workload"`
	// Config fingerprints non-default machine/trait overrides ("" = the
	// Table I/II defaults).
	Config string `json:"config,omitempty"`
	Size   string `json:"size,omitempty"`
	// Source names the producing entry point: "chatsim", "sweep",
	// "experiments", "serve", or "import:<file>" for bench history.
	Source string `json:"source,omitempty"`

	// WaveEvents/Waves/SerialEvents are the engine counters of
	// machine.WaveStats. The engine fires one event at a time, so all
	// three equal the fired-event count; records written while an
	// intra-run parallel engine existed carry its wave and serial-event
	// counts instead. Zero when not stamped.
	WaveEvents   uint64 `json:"wave_events,omitempty"`
	Waves        uint64 `json:"waves,omitempty"`
	SerialEvents uint64 `json:"serial_events,omitempty"`

	SimCycles   uint64 `json:"simcycles"`
	WallclockNS int64  `json:"wallclock_ns"`
	Allocs      uint64 `json:"allocs"`

	// Counters flattens machine.RunStats (commits, aborts, fallbacks,
	// flits, ...); ByCause is the abort-cause breakdown.
	Counters map[string]uint64 `json:"counters,omitempty"`
	ByCause  map[string]uint64 `json:"by_cause,omitempty"`

	Hists    []Hist       `json:"hists,omitempty"`
	Series   []TimeSeries `json:"series,omitempty"`
	HotLines []HotLine    `json:"hot_lines,omitempty"`
	Chain    *Chain       `json:"chain,omitempty"`
}

// Key returns the identity tuple of the record.
func (r Record) Key() Key {
	return Key{Commit: r.Commit, Seed: r.Seed, Config: r.Config, System: r.System, Workload: r.Workload}
}

// Cell returns the chats-bench style cell name
// ("system/workload[/config]") the record diffs under.
func (r Record) Cell() string {
	cell := r.System + "/" + r.Workload
	if r.Config != "" {
		cell += "/" + r.Config
	}
	return cell
}

// Commits returns the commits-per-executed-transaction counters, 0 when
// absent.
func (r Record) counter(name string) uint64 {
	if r.Counters == nil {
		return 0
	}
	return r.Counters[name]
}

// AbortRate returns aborts per executed transaction attempt (0 when the
// record carries no transaction counters, e.g. imported bench cells).
func (r Record) AbortRate() float64 {
	commits, aborts := r.counter("commits"), r.counter("aborts")
	if commits+aborts == 0 {
		return 0
	}
	return float64(aborts) / float64(commits+aborts)
}

// Hist is a persisted stats.Histogram.
type Hist struct {
	Name   string   `json:"name"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	N      uint64   `json:"n"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
}

// TimeSeries is a persisted stats.Series (cycle-windowed event counts).
type TimeSeries struct {
	Name   string   `json:"name"`
	Window uint64   `json:"window"`
	Bins   []uint64 `json:"bins"`
}

// HotLine is one row of the persisted hot-line profile.
type HotLine struct {
	Line          string `json:"line"` // "0x..." cache-line address
	Conflicts     uint64 `json:"conflicts"`
	Aborts        uint64 `json:"aborts"`
	Forwards      uint64 `json:"forwards"`
	Consumes      uint64 `json:"consumes"`
	Validations   uint64 `json:"validations"`
	ValidationsOK uint64 `json:"validations_ok"`
	Nacks         uint64 `json:"nacks"`
	NackRetries   uint64 `json:"nack_retries"`
}

// Chain is the persisted chain-topology summary.
type Chain struct {
	Edges       uint64 `json:"edges"`
	MaxDepth    int    `json:"max_depth"`
	StallNacks  uint64 `json:"stall_nacks"`
	CycleAborts uint64 `json:"cycle_aborts"`
}

// String renders the record identity for diagnostics.
func (r Record) String() string {
	return fmt.Sprintf("run %d: %s seed=%d commit=%s (%d cycles)", r.ID, r.Cell(), r.Seed, r.Commit, r.SimCycles)
}
