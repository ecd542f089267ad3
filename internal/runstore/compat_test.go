package runstore

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenSegmentWithEngineFields: a segment line written while the
// intra-run parallel engine and the banked directory existed carries
// engine_mode, intra_workers, dir_banks and non-trivial wave counters.
// Stores holding such lines must still open, query and serve them; the
// engine and bank fields are simply dropped and the wave counters
// survive.
func TestOpenSegmentWithEngineFields(t *testing.T) {
	line, err := os.ReadFile(filepath.Join("testdata", "seg-wave-fields.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000000.jsonl"), line, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := s.Runs(Query{Commit: "7d73d60a8e04", System: "chats"})
	if len(recs) != 1 {
		t.Fatalf("Query matched %d records, want 1", len(recs))
	}
	r, ok := s.Get(3)
	if !ok {
		t.Fatal("Get(3) found nothing")
	}
	if r.SimCycles != 123456 || r.Counters["commits"] != 640 {
		t.Errorf("record = %+v, want simcycles 123456, 640 commits", r)
	}
	if r.WaveEvents != 500000 || r.Waves != 210000 || r.SerialEvents != 42000 {
		t.Errorf("wave counters = (%d, %d, %d), want (500000, 210000, 42000)", r.WaveEvents, r.Waves, r.SerialEvents)
	}
	// New appends land after the old record.
	id, err := s.Append(Record{System: "baseline", Workload: "cadd"})
	if err != nil {
		t.Fatal(err)
	}
	if id <= r.ID {
		t.Errorf("appended ID %d, want above the replayed %d", id, r.ID)
	}
}
