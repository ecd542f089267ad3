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

// replayModel is the contract replay must keep, computed line by line:
// the records of a segment's newline-terminated lines, and whether
// opening it must fail. A sealed segment fails on any undecodable line
// or an unterminated tail. The newest segment drops an unterminated
// tail, and an undecodable final line, as torn, and fails only on an
// undecodable line before it.
func replayModel(data []byte, newest bool) (recs []Record, fails bool) {
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i, line := range lines {
		if !bytes.HasSuffix(line, []byte("\n")) {
			return recs, len(line) > 0 && !newest
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			torn := newest && i == len(lines)-2 && len(lines[len(lines)-1]) == 0
			return recs, !torn
		}
		recs = append(recs, r)
	}
	return recs, false
}

// FuzzReplaySegment opens arbitrary bytes as the newest segment and as a
// sealed one. Read and Open must never panic, must fail exactly on
// mid-file corruption, and must otherwise hold the model's records.
// Read must leave the bytes as they were, torn tail included; after
// Open drops a torn tail, an Append and a reopen must round-trip.
func FuzzReplaySegment(f *testing.F) {
	rec, err := json.Marshal(fullRecord(3))
	if err != nil {
		f.Fatal(err)
	}
	line := append(rec, '\n')
	f.Add(line)
	f.Add(append(append([]byte{}, line...), rec[:len(rec)/2]...))
	f.Add(append(append([]byte{}, line...), "{\"id\":\n"...))
	f.Add(append([]byte("not json\n"), line...))
	f.Add([]byte("\n \n{}\nnull\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		valid := append(append([]byte{}, line...), line...)
		for _, newest := range []bool{true, false} {
			dir := t.TempDir()
			segs := [][]byte{data}
			if !newest {
				segs = append(segs, valid) // data is sealed by a newer segment
			}
			var want []Record
			fails := false
			for i, seg := range segs {
				name := filepath.Join(dir, fmt.Sprintf("seg-%06d.jsonl", i+1))
				if err := os.WriteFile(name, seg, 0o644); err != nil {
					t.Fatal(err)
				}
				recs, bad := replayModel(seg, i == len(segs)-1)
				want = append(want, recs...)
				fails = fails || bad
			}
			r, err := Read(dir)
			if fails {
				if err == nil {
					t.Fatalf("newest %v: Read of a corrupt segment returned no error", newest)
				}
			} else if err != nil {
				t.Fatalf("newest %v: Read: %v", newest, err)
			} else if got := r.Runs(Query{}); !sameRecords(got, want) {
				t.Fatalf("newest %v: Read replayed %d records, model %d", newest, len(got), len(want))
			} else if _, err := r.Append(fullRecord(0)); err == nil {
				t.Fatalf("newest %v: Append to a Read store succeeded", newest)
			}
			if got, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl")); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("newest %v: Read changed the segment (err %v)", newest, err)
			}

			s, err := Open(dir)
			if fails {
				if err == nil {
					s.Close()
					t.Fatalf("newest %v: corrupt segment opened without an error", newest)
				}
				continue
			}
			if err != nil {
				t.Fatalf("newest %v: %v", newest, err)
			}
			if got := s.Runs(Query{}); !sameRecords(got, want) {
				s.Close()
				t.Fatalf("newest %v: replayed %d records, model %d", newest, len(got), len(want))
			}
			if _, err := s.Append(fullRecord(0)); err != nil {
				t.Fatal(err)
			}
			want = s.Runs(Query{})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(dir)
			if err != nil {
				t.Fatalf("newest %v: reopen after Append: %v", newest, err)
			}
			if got := s.Runs(Query{}); !sameRecords(got, want) {
				s.Close()
				t.Fatalf("newest %v: reopen holds %d records, want %d", newest, len(got), len(want))
			}
			s.Close()
		}
	})
}

func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
