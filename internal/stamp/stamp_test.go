package stamp

import (
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/mem"
)

// run executes a workload on a small CHATS machine and returns the world
// for post-mortem inspection.
func run(t *testing.T, w machine.Workload) (*machine.World, machine.RunStats) {
	t.Helper()
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 8
	cfg.CycleLimit = 100_000_000
	m, err := machine.New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return m.World(), stats
}

func TestKMeansCheckDetectsLostUpdate(t *testing.T) {
	w := NewKMeans(8, 10, true)
	world, _ := run(t, w)
	// Corrupt a center count: Check must notice.
	a := w.center(0)
	world.Mem.WriteWord(a, world.Mem.ReadWord(a)+1)
	if err := w.Check(world); err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("Check missed the corruption: %v", err)
	}
}

func TestGenomeCheckDetectsOrphanLink(t *testing.T) {
	w := NewGenome(32, 4, 8)
	world, _ := run(t, w)
	// Find an unclaimed segment and forge a link for it.
	for i := 0; i < w.Segments; i++ {
		if world.Mem.ReadWord(w.claim(i)) == 0 {
			world.Mem.WriteWord(w.link(i), 5)
			if err := w.Check(world); err == nil {
				t.Fatal("Check missed the orphan link")
			}
			return
		}
	}
	t.Skip("every segment claimed; cannot forge an orphan")
}

func TestIntruderCheckDetectsLoss(t *testing.T) {
	w := NewIntruder(24)
	world, _ := run(t, w)
	// Steal a result: Check must notice the count mismatch.
	world.Mem.WriteWord(w.outQ.HeadAddr(), world.Mem.ReadWord(w.outQ.HeadAddr())+1)
	if err := w.Check(world); err == nil {
		t.Fatal("Check missed the stolen result")
	}
}

func TestSSCA2DegreeConservation(t *testing.T) {
	w := NewSSCA2(128, 8)
	world, stats := run(t, w)
	if stats.Aborts > stats.Commits/2 {
		t.Fatalf("ssca2 should be low contention: %d aborts / %d commits", stats.Aborts, stats.Commits)
	}
	world.Mem.WriteWord(w.node(0), world.Mem.ReadWord(w.node(0))+1)
	if err := w.Check(world); err == nil {
		t.Fatal("Check missed the degree corruption")
	}
}

func TestVacationConservation(t *testing.T) {
	w := NewVacation(128, 3)
	world, _ := run(t, w)
	world.Mem.WriteWord(w.slot(0), world.Mem.ReadWord(w.slot(0))+1)
	if err := w.Check(world); err == nil {
		t.Fatal("Check missed the booking corruption")
	}
}

// Treap record word offsets, as structures.Treap documents them:
// {key, val, prio, left, right}.
const (
	nodeKey = iota
	nodeVal
	nodePrio
	nodeLeft
	nodeRight
)

// setUpVacation lays out a vacation's tables in a fresh world without
// running it.
func setUpVacation(relations, threads int) (*Vacation, *machine.World) {
	v := NewVacation(relations, 3)
	world := &machine.World{Mem: mem.NewMemory(), Alloc: mem.NewAllocator(0)}
	v.Setup(world, threads)
	return v, world
}

// Check walks each table once, and that one walk must still catch every
// kind of damage: a wrong value, broken key order, broken priority order
// and lost rows.
func TestVacationCheckDetectsCorruptTables(t *testing.T) {
	word := func(m *mem.Memory, node mem.Addr, field int) uint64 { return m.ReadWord(node.Plus(field)) }
	// childSlot is the word of node's left child, or of its right child
	// when it has no left one.
	childSlot := func(m *mem.Memory, node mem.Addr) mem.Addr {
		if word(m, node, nodeLeft) != 0 {
			return node.Plus(nodeLeft)
		}
		return node.Plus(nodeRight)
	}
	child := func(m *mem.Memory, node mem.Addr) mem.Addr { return mem.Addr(m.ReadWord(childSlot(m, node))) }
	// Each corruption, and a word of the error Check must give for it.
	corruptions := map[string]struct {
		want    string
		corrupt func(m *mem.Memory, root mem.Addr)
	}{
		"row value": {"remaining", func(m *mem.Memory, root mem.Addr) {
			leaf := root
			for c := child(m, leaf); c != 0; c = child(m, leaf) {
				leaf = c
			}
			m.WriteWord(leaf.Plus(nodeVal), word(m, leaf, nodeVal)+1)
		}},
		"swapped keys": {"key", func(m *mem.Memory, root mem.Addr) {
			c := child(m, root)
			rk, ck := word(m, root, nodeKey), word(m, c, nodeKey)
			m.WriteWord(root.Plus(nodeKey), ck)
			m.WriteWord(c.Plus(nodeKey), rk)
		}},
		"child above parent": {"priority", func(m *mem.Memory, root mem.Addr) {
			c := child(m, root)
			g := child(m, c)
			m.WriteWord(g.Plus(nodePrio), word(m, c, nodePrio)+1)
		}},
		"unlinked subtree": {"missing", func(m *mem.Memory, root mem.Addr) {
			m.WriteWord(childSlot(m, root), 0)
		}},
	}
	v, world := setUpVacation(128, 4)
	if err := v.Check(world); err != nil {
		t.Fatalf("untouched tables: %v", err)
	}
	for name, c := range corruptions {
		for table := range v.tables {
			v, world := setUpVacation(128, 4)
			c.corrupt(world.Mem, mem.Addr(world.Mem.ReadWord(v.tables[table].Root)))
			if err := v.Check(world); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s in table %d: Check = %v, want an error naming %q", name, table, err, c.want)
			}
		}
	}
}

func TestLabyrinthPathsAreConnected(t *testing.T) {
	w := NewLabyrinth(16, 2)
	world, _ := run(t, w)
	if err := w.Check(world); err != nil {
		t.Fatal(err)
	}
	// An impossible owner id must be rejected.
	world.Mem.WriteWord(w.cell(0, 0), 99)
	if err := w.Check(world); err == nil {
		t.Fatal("Check missed the impossible owner")
	}
}

func TestYadaRefinementConservation(t *testing.T) {
	w := NewYada(64, 3)
	world, _ := run(t, w)
	world.Mem.WriteWord(w.tri(0), world.Mem.ReadWord(w.tri(0))+1)
	if err := w.Check(world); err == nil {
		t.Fatal("Check missed the refinement corruption")
	}
}

func TestKMeansCenterAddressing(t *testing.T) {
	w := NewKMeans(4, 1, false)
	var world machine.World
	world.Mem = mem.NewMemory()
	world.Alloc = mem.NewAllocator(0x100)
	w.Setup(&world, 4)
	// Centers must not share lines (count word + dims fit the stride).
	for c := 0; c < 4; c++ {
		a := w.center(c)
		if uint64(a)%mem.LineSize != 0 {
			t.Fatalf("center %d not line aligned: %v", c, a)
		}
		if c > 0 && a == w.center(c-1) {
			t.Fatal("centers overlap")
		}
	}
}

// The medium vacation (8,192 rows per table, as the workload registry
// sizes it) on the 16 threads of the Fig. 4 grid.
const (
	benchRelations = 8192
	benchThreads   = 16
)

func BenchmarkVacationSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setUpVacation(benchRelations, benchThreads)
	}
}

func BenchmarkVacationCheck(b *testing.B) {
	v, world := setUpVacation(benchRelations, benchThreads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Check(world); err != nil {
			b.Fatal(err)
		}
	}
}
