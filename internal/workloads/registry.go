// Package workloads registers the paper's benchmark suite (Section VI-C:
// seven STAMP kernels plus the llb and cadd microbenchmarks) under the
// names used in the figures, with three size presets.
package workloads

import (
	"fmt"
	"sort"

	"chats/internal/machine"
	"chats/internal/micro"
	"chats/internal/randprog"
	"chats/internal/stamp"
)

// Size scales a workload: Tiny for unit tests, Small for Go benchmarks,
// Medium for regenerating the paper's figures.
type Size int

const (
	Tiny Size = iota
	Small
	Medium
)

// ParseSize converts a CLI string.
func ParseSize(s string) (Size, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return 0, fmt.Errorf("workloads: unknown size %q (tiny, small, medium)", s)
}

func (s Size) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// pick indexes by size.
func pick(s Size, tiny, small, medium int) int {
	switch s {
	case Tiny:
		return tiny
	case Small:
		return small
	default:
		return medium
	}
}

// factories maps workload name to a sized constructor.
var factories = map[string]func(s Size) machine.Workload{
	"genome": func(s Size) machine.Workload {
		return stamp.NewGenome(pick(s, 32, 64, 160), pick(s, 4, 12, 32), pick(s, 8, 32, 80))
	},
	"intruder": func(s Size) machine.Workload {
		return stamp.NewIntruder(pick(s, 48, 160, 480))
	},
	"kmeans-l": func(s Size) machine.Workload {
		return stamp.NewKMeans(32, pick(s, 6, 24, 64), false)
	},
	"kmeans-h": func(s Size) machine.Workload {
		return stamp.NewKMeans(8, pick(s, 6, 24, 64), true)
	},
	"labyrinth": func(s Size) machine.Workload {
		return stamp.NewLabyrinth(pick(s, 16, 32, 48), pick(s, 2, 4, 8))
	},
	"ssca2": func(s Size) machine.Workload {
		return stamp.NewSSCA2(pick(s, 256, 1024, 4096), pick(s, 8, 32, 96))
	},
	"vacation": func(s Size) machine.Workload {
		return stamp.NewVacation(pick(s, 512, 2048, 8192), pick(s, 4, 12, 24))
	},
	"yada": func(s Size) machine.Workload {
		return stamp.NewYada(pick(s, 64, 192, 512), pick(s, 4, 12, 32))
	},
	"llb-l": func(s Size) machine.Workload {
		return micro.NewLLB(pick(s, 128, 256, 512), pick(s, 8, 32, 96), false)
	},
	"llb-h": func(s Size) machine.Workload {
		return micro.NewLLB(pick(s, 128, 256, 512), pick(s, 8, 32, 96), true)
	},
	"cadd": func(s Size) machine.Workload {
		return micro.NewCAdd(pick(s, 32, 128, 512), pick(s, 16, 32, 64), pick(s, 4, 12, 32))
	},
	// Seeded random transactional programs (the differential-fuzzing
	// generator, internal/randprog). The presets are commutative
	// (adds only), so Workload.Check self-verifies the final memory on
	// any system regardless of commit order. Fixed seeds keep runs
	// reproducible; the program is generated at Setup with its core
	// count clamped to the machine's.
	"randprog": func(s Size) machine.Workload {
		return randprog.Family("randprog", 1, randprog.Preset(int(s)))
	},
	"randprog-chain": func(s Size) machine.Workload {
		g := randprog.Preset(int(s))
		g.ChainFrac = 0.6
		g.HotFrac = 0.8
		return randprog.Family("randprog-chain", 2, g)
	},
}

// STAMPNames are the paper's Fig. 4 benchmarks in presentation order
// (bayes excluded, Section VI-C).
func STAMPNames() []string {
	return []string{"genome", "intruder", "kmeans-l", "kmeans-h", "labyrinth", "ssca2", "vacation", "yada"}
}

// MicroNames are the synthetic microbenchmarks (excluded from the means,
// Section VI-C).
func MicroNames() []string { return []string{"llb-l", "llb-h", "cadd"} }

// RandNames are the seeded random-program families from the
// differential-fuzzing generator (not part of the paper's figures).
func RandNames() []string { return []string{"randprog", "randprog-chain"} }

// AllNames returns every benchmark in figure order.
func AllNames() []string { return append(STAMPNames(), MicroNames()...) }

// Names returns the registry keys sorted (CLI help).
func Names() []string {
	var ns []string
	for n := range factories {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Check returns an error naming the first of names that is not a
// registered workload, so a grid can fail before any cell runs.
func Check(names []string) error {
	for _, n := range names {
		if _, ok := factories[n]; !ok {
			return fmt.Errorf("workloads: unknown workload %q (known: %v)", n, Names())
		}
	}
	return nil
}

// New builds a fresh instance of the named workload at the given size.
// Instances are single-use: Run mutates their setup state.
func New(name string, s Size) (machine.Workload, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (known: %v)", name, Names())
	}
	return f(s), nil
}
