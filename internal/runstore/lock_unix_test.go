//go:build unix

package runstore

import (
	"strings"
	"testing"
)

// TestStoreOneWriter: while one Store holds a directory open, a second
// Open fails naming the directory and Read still works; after Close the
// directory opens again and numbering continues.
func TestStoreOneWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(fullRecord(0)); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(dir); err == nil {
		s2.Close()
		t.Fatal("a second Open of a held directory succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("second Open error %q does not name %s", err, dir)
	}
	if r, err := Read(dir); err != nil || r.Len() != 1 {
		t.Fatalf("Read beside a writer: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer s.Close()
	if id, err := s.Append(fullRecord(0)); err != nil || id != 1 {
		t.Fatalf("Append after reopen = %d, %v; want ID 1", id, err)
	}
}
