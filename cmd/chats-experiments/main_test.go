package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

// -faults applies to the figures and the fallback matrix too: a faulted
// Fig. 4 table and faulted matrix rows differ from the clean ones.
func TestRunFaultsApplyInEveryMode(t *testing.T) {
	out := func(args ...string) string {
		var stdout bytes.Buffer
		if err := run(append(args, "-size", "tiny"), &stdout, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return stdout.String()
	}
	if clean, faulted := out("-fig", "4"), out("-fig", "4", "-faults", "spurious:p=0.3"); clean == faulted {
		t.Fatalf("-faults spurious:p=0.3 printed the clean table:\n%s", clean)
	}

	// The matrix's first line names its plan; the rows follow it.
	rows := func(args ...string) string {
		_, rest, _ := strings.Cut(out(append([]string{"-fallback-matrix"}, args...)...), "\n")
		return rest
	}
	if clean, faulted := rows(), rows("-faults", "spurious:p=0.3"); clean == faulted {
		t.Fatalf("-fallback-matrix rows with -faults spurious:p=0.3 are the lockburst rows:\n%s", clean)
	}
}

// -csv writes each printed table into the directory, named by a slug of
// its title.
func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "7", "-size", "tiny", "-csv", dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	const want = "fig-7-network-usage-flits-normalized-to-baseline.csv"
	if len(names) != 1 || names[0] != want {
		t.Fatalf("-csv wrote %v, want [%s]", names, want)
	}
	data, err := os.ReadFile(filepath.Join(dir, want))
	if err != nil {
		t.Fatal(err)
	}
	if head, _, _ := strings.Cut(string(data), "\n"); head != "row,baseline,naive-rs,chats,power,pchats" {
		t.Fatalf("%s starts %q", want, head)
	}
}
