package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeRuns appends n minimal records and returns what the store holds.
func writeRuns(t *testing.T, dir string, n int) []Record {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := fullRecord(0)
		r.Seed = uint64(i)
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Runs(Query{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1]
}

// TestCrashRecoveryTornTail is the issue's crash scenario: a segment
// truncated mid-record (as an interrupted append would leave it) must
// reopen cleanly with the torn tail dropped, every prior run intact,
// and the file physically truncated back to the last record boundary.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	want := writeRuns(t, dir, 6)

	// Tear the tail: chop the last record in half, no trailing newline.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n') + 1
	cut := lastStart + (len(data)-lastStart)/2
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	got := s.Runs(Query{})
	if !reflect.DeepEqual(got, want[:5]) {
		t.Errorf("recovered records drifted:\ngot  %d records %+v\nwant %d records", len(got), got, 5)
	}
	// The torn bytes must be gone from disk so the next append starts at
	// a clean record boundary.
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(after)) != int64(lastStart) {
		t.Errorf("segment is %d bytes after recovery, want %d (torn tail truncated)", len(after), lastStart)
	}
	// Appends after recovery reuse the freed ID and persist normally.
	id, err := s.Append(fullRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if wantID := want[4].ID + 1; id != wantID {
		t.Errorf("post-recovery ID = %d, want %d", id, wantID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 6 {
		t.Errorf("store holds %d records after recovery+append+reopen, want 6", s2.Len())
	}
}

// TestCrashRecoveryTornJSONWithNewline covers the other tear shape: a
// partially-flushed final line that happens to end in a newline but is
// not valid JSON.
func TestCrashRecoveryTornJSONWithNewline(t *testing.T) {
	dir := t.TempDir()
	want := writeRuns(t, dir, 3)
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":99,"sys` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn JSON line: %v", err)
	}
	defer s.Close()
	if got := s.Runs(Query{}); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %d records, want %d intact", len(got), len(want))
	}
}

// TestCorruptionMidSegmentIsAnError distinguishes recoverable tails
// from real corruption: garbage in the middle of a segment must refuse
// to open, not silently drop data.
func TestCorruptionMidSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	writeRuns(t, dir, 4)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Smash bytes inside the second record.
	lines := bytes.SplitAfter(data, []byte("\n"))
	copy(lines[1][4:], []byte("XXXX"))
	if err := os.WriteFile(seg, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open succeeded on a segment with mid-file corruption")
	}
}

// TestConcurrentWriters hammers Append from many goroutines (run under
// -race in CI): every record must land exactly once with a unique ID,
// and the result must replay identically from disk.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := fullRecord(0)
				r.Seed = uint64(w*1000 + i)
				if _, err := s.Append(r); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers must see consistent snapshots while writes land.
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = s.Runs(Query{System: "chats"})
				_ = s.Trends(Query{})
			}
		}()
	}
	wg.Wait()
	const total = writers * perWriter
	if s.Len() != total {
		t.Fatalf("store holds %d records, want %d", s.Len(), total)
	}
	ids := make(map[uint64]bool, total)
	seeds := make(map[uint64]bool, total)
	for _, r := range s.Runs(Query{}) {
		if ids[r.ID] {
			t.Fatalf("duplicate ID %d", r.ID)
		}
		ids[r.ID] = true
		seeds[r.Seed] = true
	}
	if len(seeds) != total {
		t.Errorf("%d distinct seeds recorded, want %d", len(seeds), total)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != total {
		t.Errorf("reopened store holds %d records, want %d", s2.Len(), total)
	}
}
