package difftest_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"chats/internal/difftest"
	"chats/internal/faults"
	"chats/internal/randprog"
)

// checkMin runs the full oracle on p. On a failure it shrinks p with
// Minimize, which knows blocks and ops where Go's byte minimizer does
// not, and returns the failure with p's spec and the reproducer's.
func checkMin(p *randprog.Program, opts difftest.Options) error {
	err := difftest.Check(p, opts)
	if err == nil {
		return nil
	}
	rep := difftest.Minimize(p, func(q *randprog.Program) bool { return difftest.Check(q, opts) != nil }, 0)
	return fmt.Errorf("%v\n  spec:       %s\n  reproducer: %s", err, p, rep)
}

// decodeMachine reads FuzzMachine's knobs into a generator
// configuration, the check's options and a label naming the machine
// knobs, one byte per field, a missing byte reading as 0. The generator
// bytes are cores (2–16), pool (1–16), pack (1–4), blocks per core
// (1–8) and the write, chain and add fractions (b/255); the rest of the
// generator is the tiny preset. The machine bytes are the fallback kind
// (lock, stm, elide), the hot-line threshold (0–8), the backoff (exp,
// linear, jitter), a fault mask (bit i enables the i-th clause of
// faults.SoakSpec) and bit 0 of the last byte, which cuts every
// system's retry budget to 1 (lowRetryWrap).
func decodeMachine(t *testing.T, knobs []byte) (randprog.GenConfig, difftest.Options, string) {
	next := func() int {
		if len(knobs) == 0 {
			return 0
		}
		b := knobs[0]
		knobs = knobs[1:]
		return int(b)
	}
	frac := func() float64 { return float64(next()) / 255 }
	g := randprog.Preset(0)
	g.Cores = 2 + next()%15
	g.Pool = 1 + next()%16
	g.Pack = 1 + next()%4
	g.Blocks = 1 + next()%8
	g.WriteFrac, g.ChainFrac, g.AddFrac = frac(), frac(), frac()

	fb := []string{"lock", "stm", "elide"}[next()%3]
	hl := next() % 9
	bo := []string{"exp", "linear", "jitter"}[next()%3]
	mask := next()
	var clauses []string
	for i, c := range strings.Split(faults.SoakSpec, ";") {
		if mask&(1<<i) != 0 {
			clauses = append(clauses, c)
		}
	}
	cfg := knobConfig(t, fb, hl, bo)
	opts := difftest.Options{Machine: &cfg}
	label := fmt.Sprintf("-fallback %s -hotline %d -backoff %s", fb, hl, bo)
	if len(clauses) > 0 {
		spec := strings.Join(clauses, ";")
		plan, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = &plan
		label += " -faults '" + spec + "'"
	}
	if next()&1 != 0 {
		opts.Wrap = lowRetryWrap
		label += " (retry budget 1)"
	}
	return g, opts, label
}

// FuzzMachine generates a random program from seed and a generator
// configuration and machine knobs from knobs (see decodeMachine), and
// runs the full differential oracle on the five paper systems. Plain
// go test replays the seeds below and testdata/fuzz/FuzzMachine; search
// with
//
//	go test -run '^$' -fuzz '^FuzzMachine$' -fuzztime 30s ./internal/difftest
//
// A failure names the knobs, the program's spec and a minimized
// reproducer; `chatsim -repro '<spec>'` with the same knob flags
// replays it (the retry budget aside), and a reproducer worth keeping
// goes into corpus/*.txt.
func FuzzMachine(f *testing.F) {
	// The tiny preset with plain stores mixed in (cores 4, pool 6, pack
	// 2, blocks 4, writes 0.5, chains 0.3, adds 0.5), on the lock path,
	// the STM and elision paths with the retry budget cut, and under
	// every soak fault.
	tiny := []byte{2, 5, 1, 3, 128, 77, 128}
	for _, c := range []struct {
		seed  uint64
		knobs []byte
	}{
		{1, tiny},
		{7000, slices.Concat(tiny, []byte{1, 0, 0, 0, 1})},
		{7001, slices.Concat(tiny, []byte{2, 3, 1, 0, 1})},
		{3, slices.Concat(tiny, []byte{0, 8, 2, 0x7f, 0})},
	} {
		f.Add(c.seed, c.knobs)
	}
	f.Fuzz(func(t *testing.T, seed uint64, knobs []byte) {
		g, opts, label := decodeMachine(t, knobs)
		if err := checkMin(randprog.Generate(seed, g), opts); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, label, err)
		}
	})
}

// maxFuzzWork bounds the work cycles of a FuzzProgram input: a program
// that computes for longer than the oracle's cycle limit fails on
// every system without any protocol fault.
const maxFuzzWork = 1 << 20

// FuzzProgram parses an rp1 spec and runs the full differential oracle
// on it. Its seeds are the corpus/*.txt programs; specs that do not
// parse, or that compute for more than maxFuzzWork cycles, are skipped.
//
//	go test -run '^$' -fuzz '^FuzzProgram$' -fuzztime 10s ./internal/difftest
func FuzzProgram(f *testing.F) {
	for _, p := range loadCorpus(f) {
		f.Add(p.String())
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := randprog.Parse(spec)
		if err != nil {
			return
		}
		var work uint64
		for _, seq := range p.Seq {
			for _, a := range seq {
				if a.Kind == randprog.ActWork {
					work += min(a.Arg, maxFuzzWork)
				}
				for _, op := range a.Ops {
					if op.Kind == randprog.OpWork {
						work += min(op.Arg, maxFuzzWork)
					}
				}
			}
		}
		if work >= maxFuzzWork {
			return
		}
		if err := checkMin(p, difftest.Options{}); err != nil {
			t.Fatal(err)
		}
	})
}
