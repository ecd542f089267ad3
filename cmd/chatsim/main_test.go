package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"chats/internal/runstore"
)

// The command lines below are pinned byte for byte: each golden file in
// testdata holds the stdout the command printed when it was written.
// Every simulation here is deterministic per seed, so any difference is
// a behavior change.
var pins = []struct{ golden, args string }{
	{"cell", "-system chats -bench cadd -size tiny -invariants"},
	{"cell-json", "-system chats -bench cadd -size tiny -invariants -json"},
	{"cell-knobs", "-system baseline -bench kmeans-h -size tiny -hotline 4 -fallback stm -backoff linear:cap=4096 -faults spurious:p=0.05"},
	{"cell-telemetry", "-system chats -bench cadd -size tiny -hot-lines 3 -chain -metrics"},
	{"list", "-list"},
	{"dump-config", "-dump-config"},
	{"dump-systems", "-dump-systems"},
	{"dump-both", "-dump-config -dump-systems"},
	{"repro", "-repro @../../internal/difftest/corpus/fallback-storm.txt"},
}

// Sweeps are pinned at -j 1 and -j 4 against the same golden file.
var sweepPins = []struct{ golden, args string }{
	{"sweep", "-sweep -size tiny"},
	{"sweep-json", "-sweep -systems baseline,chats,pchats -benches cadd,kmeans-h,llb-h -size tiny -retries 2 -vsb 2 -validation 100 -hotline 4 -invariants -json"},
}

func runOut(t *testing.T, args string) string {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(strings.Fields(args), &stdout, io.Discard); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return stdout.String()
}

func checkGolden(t *testing.T, golden, args, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("chatsim %s: stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", args, golden, got, want)
	}
}

func TestRunPinnedOutputs(t *testing.T) {
	for _, p := range pins {
		t.Run(p.golden, func(t *testing.T) {
			checkGolden(t, p.golden, p.args, runOut(t, p.args))
		})
	}
}

func TestRunSweepIdenticalAcrossJobs(t *testing.T) {
	for _, p := range sweepPins {
		for _, j := range []string{"1", "4"} {
			t.Run(p.golden+"/j"+j, func(t *testing.T) {
				args := p.args + " -j " + j
				checkGolden(t, p.golden, args, runOut(t, args))
			})
		}
	}
}

// -store records one record per sweep cell and one per single run, keyed
// by source, system, workload, seed and config; a single run with a
// telemetry flag carries its hot-line drill-down.
func TestRunStoreRecords(t *testing.T) {
	dir := t.TempDir()
	var stderr bytes.Buffer
	err := run(strings.Fields("-sweep -systems baseline,chats -benches cadd -size tiny -hotline 4 -j 1 -progress -store "+dir),
		io.Discard, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stderr.String(), "\rcells: 1/2\rcells: 2/2\n"; got != want {
		t.Fatalf("-progress printed %q, want %q", got, want)
	}
	if err := run(strings.Fields("-system chats -bench cadd -size tiny -hot-lines 3 -store "+dir), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	st, err := runstore.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		source, system, workload string
		seed                     uint64
		config, size             string
		cycles                   uint64
		hotLines                 int
	}
	want := []key{
		{"sweep", "baseline", "cadd", 1, "hl=4", "tiny", 36165, 0},
		{"sweep", "chats", "cadd", 1, "hl=4", "tiny", 31729, 0},
		{"chatsim", "chats", "cadd", 1, "", "tiny", 23337, 1},
	}
	recs := st.Runs(runstore.Query{})
	if len(recs) != len(want) {
		t.Fatalf("store holds %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		got := key{r.Source, r.System, r.Workload, r.Seed, r.Config, r.Size, r.SimCycles, len(r.HotLines)}
		if got != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// Bad input returns an error naming the bad value; nothing exits the
// process.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, c := range []struct{ args, bad string }{
		{"-bench cadd -size tiny -faults bogus:p=1", `"bogus"`},
		{"-sweep -benches nope -size tiny", `"nope"`},
		{"-system nope -size tiny", `"nope"`},
		{"-sweep -systems nope -size tiny", `"nope"`},
		{"-repro @../../internal/difftest/corpus/fallback-storm.txt -systems nope", `"nope"`},
		{"-size huge", `"huge"`},
		{"-fallback bogus -size tiny", `bogus`},
		{"-backoff bogus -size tiny", `bogus`},
		{"-no-such-flag", `no-such-flag`},
	} {
		t.Run(c.args, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(strings.Fields(c.args), &stdout, io.Discard)
			if err == nil {
				t.Fatalf("run(%q) returned no error", c.args)
			}
			if !strings.Contains(err.Error(), c.bad) {
				t.Fatalf("run(%q) error %q does not name %s", c.args, err, c.bad)
			}
			if stdout.Len() != 0 {
				t.Fatalf("run(%q) printed %q before failing", c.args, stdout.String())
			}
		})
	}
}

// The flag names and defaults are the command's interface: scripts, CI
// and the docs spell them out.
func TestRunFlagDefaults(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); err == nil {
		t.Fatal("-h returned no error")
	}
	dflt := regexp.MustCompile(` \(default (.*)\)$`)
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "  -"), " ")
			got = append(got, strings.SplitN(name, "\t", 2)[0]+"=")
		}
		if m := dflt.FindStringSubmatch(line); m != nil && len(got) > 0 {
			got[len(got)-1] += m[1]
		}
	}
	want := []string{
		"backoff=", `bench="kmeans-h"`, "benches=", "chain=", "cores=16",
		"cpuprofile=", "dump-config=", "dump-systems=", "fallback=", "faults=",
		"hot-lines=", "hotline=", "invariants=", "j=", "json=", "list=",
		"max-attempts=", "memprofile=", "metrics=", "progress=", "repro=",
		"retries=-1", "seed=1", `size="small"`, "store=", "sweep=",
		`system="chats"`, "systems=", "trace=", "trace-chrome=", "trace-json=",
		"validation=-1", "vsb=-1", "watchdog-cycles=", "window=10000",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags and defaults:\ngot  %v\nwant %v", got, want)
	}
}
