package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fullRecord populates every field so the round-trip test covers the
// whole schema.
func fullRecord(id uint64) Record {
	return Record{
		ID: id,
		Meta: Meta{
			Commit:       "abc123def456",
			TimestampUTC: "2026-08-07T12:00:00Z",
			GoVersion:    "go1.24.0",
		},
		Seed:        42,
		System:      "chats",
		Workload:    "kmeans-h",
		Config:      "r8-v8-i50-f0-n0-pfalse",
		Size:        "tiny",
		Source:      "test",
		SimCycles:   123_456_789_012,
		WallclockNS: 9_876_543_210,
		Allocs:      55_555,
		Counters: map[string]uint64{
			"commits": 100, "aborts": 17, "fallbacks": 2, "flits": 9999,
		},
		ByCause: map[string]uint64{"conflict": 12, "capacity": 5},
		Hists: []Hist{{
			Name:   "tx/cycles-per-commit",
			Bounds: []uint64{64, 128, 256},
			Counts: []uint64{1, 2, 3, 4},
			N:      10, Sum: 2048, Max: 1999,
		}},
		Series: []TimeSeries{{
			Name: "commits", Window: 10_000, Bins: []uint64{5, 0, 9},
		}},
		HotLines: []HotLine{{
			Line: "0x1c0", Conflicts: 7, Aborts: 3, Forwards: 2, Consumes: 2,
			Validations: 2, ValidationsOK: 1, Nacks: 4, NackRetries: 6,
		}},
		Chain: &Chain{Edges: 9, MaxDepth: 3, StallNacks: 4, CycleAborts: 1},
	}
}

// TestRecordRoundTrip pins the acceptance criterion: every recorded
// field survives encode→decode bit-exactly.
func TestRecordRoundTrip(t *testing.T) {
	want := fullRecord(7)
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestStoreAppendReopen checks the basic persistence contract: what was
// appended is what a fresh Open indexes, IDs keep increasing across
// reopen, and the full record content survives the disk round trip.
func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 5; i++ {
		r := fullRecord(0)
		r.Seed = uint64(i)
		id, err := s.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.ID = id
		want = append(want, r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(fullRecord(0)); err == nil {
		t.Error("Append after Close succeeded")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Runs(Query{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reopened store drifted:\ngot  %+v\nwant %+v", got, want)
	}
	// IDs continue where the previous generation stopped.
	id, err := s2.Append(fullRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if wantID := want[len(want)-1].ID + 1; id != wantID {
		t.Errorf("ID after reopen = %d, want %d", id, wantID)
	}
}

// TestStoreSegmentRotation covers stores that older versions left with
// several segments: a hand-written two-segment store opens as one
// continuous store, and an append lands in the newest segment.
func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for i, name := range []string{"seg-000001.jsonl", "seg-000002.jsonl"} {
		var seg []byte
		for j := 0; j < 2; j++ {
			r := fullRecord(uint64(2*i + j))
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			seg = append(append(seg, line...), '\n')
			want = append(want, r)
		}
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	first, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Runs(Query{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("two segments replayed as %+v, want %+v", got, want)
	}
	id, err := s.Append(fullRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Errorf("appended ID %d, want 4", id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl")); err != nil || !bytes.Equal(after, first) {
		t.Errorf("the older segment changed (err %v)", err)
	}
	newest, err := os.ReadFile(filepath.Join(dir, "seg-000002.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(newest, []byte("\n")); n != 3 {
		t.Errorf("newest segment holds %d records, want 3", n)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl")); len(segs) != 2 {
		t.Errorf("segments after the append: %v, want the two written", segs)
	}
}

// TestQueryAndTrends exercises filtering and the cross-commit trend
// aggregation (commit order = first-recorded, seeds folded by mean).
func TestQueryAndTrends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	add := func(commit, system, workload string, seed, cycles uint64) {
		r := Record{
			Meta:      Meta{Commit: commit},
			Seed:      seed,
			System:    system,
			Workload:  workload,
			SimCycles: cycles,
			Counters:  map[string]uint64{"commits": 90, "aborts": 10},
		}
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	add("c1", "chats", "cadd", 1, 100)
	add("c1", "chats", "cadd", 2, 300) // second seed, same commit → mean 200
	add("c1", "baseline", "cadd", 1, 400)
	add("c2", "chats", "cadd", 1, 150)

	if got := len(s.Runs(Query{System: "chats"})); got != 3 {
		t.Errorf("Query{System:chats} = %d records, want 3", got)
	}
	if got := len(s.Runs(Query{Commit: "c2"})); got != 1 {
		t.Errorf("Query{Commit:c2} = %d records, want 1", got)
	}
	if got := s.Runs(Query{System: "chats", Limit: 1}); len(got) != 1 || got[0].SimCycles != 150 {
		t.Errorf("Limit=1 should keep the newest record, got %+v", got)
	}
	if got := s.Commits(); !reflect.DeepEqual(got, []string{"c1", "c2"}) {
		t.Errorf("Commits() = %v, want first-recorded order [c1 c2]", got)
	}

	trends := s.Trends(Query{System: "chats"})
	if len(trends) != 1 {
		t.Fatalf("Trends = %d groups, want 1: %+v", len(trends), trends)
	}
	tr := trends[0]
	if tr.System != "chats" || tr.Workload != "cadd" || len(tr.Points) != 2 {
		t.Fatalf("trend = %+v, want chats/cadd with 2 points", tr)
	}
	if tr.Points[0].Commit != "c1" || tr.Points[0].SimCycles != 200 || tr.Points[0].Runs != 2 {
		t.Errorf("point 0 = %+v, want commit c1 mean 200 over 2 runs", tr.Points[0])
	}
	if tr.Points[1].Commit != "c2" || tr.Points[1].SimCycles != 150 {
		t.Errorf("point 1 = %+v, want commit c2 with 150 cycles", tr.Points[1])
	}
	if rate := tr.Points[0].AbortRate; rate != 0.1 {
		t.Errorf("abort rate = %v, want 0.1", rate)
	}
}

// TestGetByID covers the drill-down lookup.
func TestGetByID(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Append(fullRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s.Get(id)
	if !ok || r.System != "chats" || r.Chain == nil {
		t.Errorf("Get(%d) = %+v, %v", id, r, ok)
	}
	if _, ok := s.Get(id + 99); ok {
		t.Error("Get of unknown ID succeeded")
	}
}

// TestOpenEmptyAndMissingDir covers the create-on-open path.
func TestOpenEmptyAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("fresh store Len = %d", s.Len())
	}
	if _, err := s.Append(Record{System: "chats", Workload: "cadd"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000001.jsonl")); err != nil {
		t.Errorf("segment file missing: %v", err)
	}
}

// TestRecorderStampsMeta checks the callback the CLIs hand to
// experiments.Params.Recorder.
func TestRecorderStampsMeta(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meta := Meta{Commit: "feed", TimestampUTC: "2026-08-07T01:02:03Z", GoVersion: "go1.24.0"}
	rec := s.Recorder(meta, "experiments")
	for i := 0; i < 3; i++ {
		rec(Record{System: "chats", Workload: fmt.Sprintf("w%d", i)})
	}
	runs := s.Runs(Query{Source: "experiments"})
	if len(runs) != 3 {
		t.Fatalf("recorded %d runs, want 3", len(runs))
	}
	for _, r := range runs {
		if r.Meta != meta {
			t.Errorf("meta not stamped: %+v", r.Meta)
		}
	}
}
