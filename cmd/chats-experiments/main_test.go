package main

import (
	"bytes"
	"io"
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
