package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"chats"
	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/randprog"
	"chats/internal/runstore"
	"chats/internal/workloads"
)

// fuzzGen maps the CLI -size to a generator preset and mixes plain
// stores in (the registry presets are adds-only; the fuzzer wants
// order-sensitive programs too, which the commit-order replay oracle
// handles).
func fuzzGen(size workloads.Size) randprog.GenConfig {
	g := randprog.Preset(int(size))
	g.AddFrac = 0.5
	return g
}

// runFuzz drives a differential-fuzzing campaign from the CLI. It
// returns an error if any program fails its oracles. With -fuzz-break
// the CHATS validation is deliberately broken and the sense inverts: the
// campaign must CATCH the bug, proving the oracle has teeth.
func runFuzz(stdout io.Writer, cfg machine.Config, n int, start uint64, size, systems string, jobs int,
	budget time.Duration, minimize bool, reproOut string, selfTest, jsonOut bool,
	record func(runstore.Record)) error {
	sz, err := workloads.ParseSize(size)
	if err != nil {
		return err
	}
	kinds, err := core.ParseList(systems)
	if err != nil {
		return err
	}
	opts := difftest.Options{
		Machine: &cfg,
		Systems: kinds,
		Seed:    cfg.Seed,
		Faults:  cfg.Faults,
	}
	if selfTest {
		// Break value-based validation on CHATS only and turn the
		// invariant checker off: the pure cross-system memory oracle
		// must still catch the corruption.
		opts.Systems = []chats.SystemKind{chats.CHATS}
		opts.Wrap = func(_ chats.SystemKind, p htm.Policy) htm.Policy { return difftest.SkipValidation(p) }
		opts.NoInvariants = true
	}
	rep := difftest.Fuzz(difftest.FuzzOptions{
		Start:    start,
		N:        n,
		Gen:      fuzzGen(sz),
		Check:    opts,
		Jobs:     jobs,
		Minimize: minimize,
		Budget:   budget,
		Record:   record,
	})

	if reproOut != "" && !rep.Ok() {
		err := writeFile(reproOut, func(w io.Writer) error { return encodeJSON(w, rep.Failures) })
		if err != nil {
			return err
		}
	}
	if jsonOut {
		if err := encodeJSON(stdout, rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stdout, rep.Summary())
		for _, f := range rep.Failures {
			fmt.Fprintf(stdout, "  seed %d: %s\n    spec: %s\n", f.Seed, f.Err, f.Spec)
			if f.MinSpec != "" {
				fmt.Fprintf(stdout, "    minimized (%d ops): %s\n", f.MinOps, f.MinSpec)
			}
		}
	}
	if selfTest {
		if rep.Ok() {
			return fmt.Errorf("self-test: broken validation escaped the differential oracle (%d programs)", rep.Ran)
		}
		fmt.Fprintf(stdout, "self-test ok: oracle caught the broken policy in %d/%d programs\n", len(rep.Failures), rep.Ran)
		return nil
	}
	if !rep.Ok() {
		return fmt.Errorf("%d of %d programs failed the differential oracle", len(rep.Failures), rep.Ran)
	}
	return nil
}

// runRepro replays one rp1 spec (or @file containing one, '#' comments
// allowed) through the full differential oracle.
func runRepro(stdout io.Writer, cfg machine.Config, arg, systems string) error {
	spec := arg
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return err
		}
		spec = ""
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			spec = line
			break
		}
		if spec == "" {
			return fmt.Errorf("%s: no spec line found", arg[1:])
		}
	}
	p, err := randprog.Parse(spec)
	if err != nil {
		return err
	}
	kinds, err := core.ParseList(systems)
	if err != nil {
		return err
	}
	opts := difftest.Options{
		Machine: &cfg,
		Systems: kinds,
		Seed:    cfg.Seed,
		Faults:  cfg.Faults,
	}
	if err := difftest.Check(p, opts); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "repro ok: %d ops, %d cores, all oracles green\n", p.NumOps(), p.Cores)
	return nil
}
