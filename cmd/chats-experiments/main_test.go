package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Bad flags and flag combinations return an error; none may panic or
// exit the process.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range []string{
		"-fig 12",
		"-size huge",
		"-fallback bogus",
		"-backoff bogus",
		"-faults-soak -faults bogus:p=1",
		"-fig 4 -size tiny -faults bogus",
		"-bench-scale",
	} {
		t.Run(args, func(t *testing.T) {
			if err := run(strings.Fields(args), io.Discard, io.Discard); err == nil {
				t.Fatalf("run(%q) returned no error", args)
			}
		})
	}
}

// A figure table is byte-identical at any -j.
func TestRunFigureIdenticalAcrossJobs(t *testing.T) {
	out := func(j string) string {
		var stdout bytes.Buffer
		if err := run([]string{"-fig", "4", "-size", "tiny", "-j", j}, &stdout, io.Discard); err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		return stdout.String()
	}
	j1, j4 := out("1"), out("4")
	if !strings.Contains(j1, "Fig. 4") {
		t.Fatalf("-fig 4 printed no Fig. 4 table:\n%s", j1)
	}
	if j1 != j4 {
		t.Fatalf("-fig 4 -size tiny differs between -j 1 and -j 4:\n-j 1:\n%s\n-j 4:\n%s", j1, j4)
	}
}

// -faults applies to the figures and the scale grid too: a faulted
// Fig. 4 table and faulted scale-grid cycles differ from the clean ones.
func TestRunFaultsApplyInEveryMode(t *testing.T) {
	out := func(args ...string) string {
		var stdout bytes.Buffer
		if err := run(append([]string{"-fig", "4", "-size", "tiny"}, args...), &stdout, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return stdout.String()
	}
	if clean, faulted := out(), out("-faults", "spurious:p=0.3"); clean == faulted {
		t.Fatalf("-faults spurious:p=0.3 printed the clean table:\n%s", clean)
	}

	cycles := func(args ...string) []uint64 {
		path := filepath.Join(t.TempDir(), "scale.json")
		if err := run(append([]string{"-bench-scale", "-size", "tiny", "-bench-json", path}, args...), io.Discard, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Cells []struct {
				SimCycles uint64 `json:"simcycles"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		var cs []uint64
		for _, c := range doc.Cells {
			cs = append(cs, c.SimCycles)
		}
		return cs
	}
	if clean, faulted := cycles(), cycles("-faults", "spurious:p=0.3"); len(clean) == 0 || slices.Equal(clean, faulted) {
		t.Fatalf("-bench-scale simcycles %v with -faults spurious:p=0.3, %v without", faulted, clean)
	}
}
