package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/machine"
	"chats/internal/randprog"
)

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
	if err := difftest.Check(p, difftest.Options{Machine: &cfg, Systems: kinds}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "repro ok: %d ops, %d cores, all oracles green\n", p.NumOps(), p.Cores)
	return nil
}
