package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
)

// Labyrinth models the maze router: each very long transaction reads an
// entire candidate path through the shared grid and, if free, claims all
// of its cells. Parallelism is scarce because transactions are huge and
// the grid is shared wholesale (Section VII: no improvement without
// early release), so all systems perform comparably.
type Labyrinth struct {
	// Grid is the square grid side (cells = Grid²).
	Grid int
	// RoutesPerThread is the number of routing attempts per thread.
	RoutesPerThread int

	threads int
	cells   mem.Addr
	claims  mem.Addr // per-thread success counters
}

// NewLabyrinth builds the kernel.
func NewLabyrinth(grid, routes int) *Labyrinth {
	return &Labyrinth{Grid: grid, RoutesPerThread: routes}
}

func (l *Labyrinth) Name() string { return "labyrinth" }

func (l *Labyrinth) cell(x, y int) mem.Addr {
	return l.cells.Plus(y*l.Grid + x)
}

func (l *Labyrinth) slot(tid int) mem.Addr { return l.claims + mem.Addr(tid*mem.LineSize) }

func (l *Labyrinth) Setup(w *machine.World, threads int) {
	l.threads = threads
	words := l.Grid * l.Grid
	l.cells = w.Alloc.Lines((words*mem.WordSize + mem.LineSize - 1) / mem.LineSize)
	l.claims = w.Alloc.Lines(threads)
}

// path builds an L-shaped route between a random point and a nearby
// destination (real routes are local; whole-grid spans would make every
// pair of routes collide).
func (l *Labyrinth) path(r *sim.Rand) []mem.Addr {
	x0, y0 := r.Intn(l.Grid), r.Intn(l.Grid)
	hop := l.Grid / 6
	if hop < 2 {
		hop = 2
	}
	x1 := (x0 + 1 + r.Intn(hop)) % l.Grid
	y1 := (y0 + 1 + r.Intn(hop)) % l.Grid
	var p []mem.Addr
	step := func(a, b int) int {
		if a < b {
			return 1
		}
		return -1
	}
	for x := x0; x != x1; x += step(x0, x1) {
		p = append(p, l.cell(x, y0))
	}
	for y := y0; y != y1; y += step(y0, y1) {
		p = append(p, l.cell(x1, y))
	}
	p = append(p, l.cell(x1, y1))
	return p
}

// pathCheck is the walker of the route check: it loads a route's cells
// in order and stops at the first claimed one.
type pathCheck struct {
	p       []mem.Addr
	i       int
	blocked bool
}

func (w *pathCheck) Next(v uint64) (mem.Addr, bool) {
	if v != 0 {
		w.blocked = true
		return 0, false
	}
	w.i++
	if w.i == len(w.p) {
		return 0, false
	}
	return w.p[w.i], true
}

func (l *Labyrinth) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*3571 + 41)
	routed := uint64(0)
	check := new(pathCheck)
	for i := 0; i < l.RoutesPerThread; i++ {
		p := l.path(r)
		ctx.Work(uint64(20 * len(p))) // private expansion (Lee's algorithm)
		claimed := false
		ctx.Atomic(func(tx machine.Tx) {
			claimed = false // the body may re-execute after an abort
			*check = pathCheck{p: p}
			tx.Walk(p[0], check)
			if check.blocked {
				return // blocked route: give up (grid stays read-only)
			}
			for _, c := range p {
				tx.Store(c, uint64(tid)+1)
			}
			claimed = true
		})
		if claimed {
			routed++
		}
	}
	ctx.Store(l.slot(tid), routed)
}

func (l *Labyrinth) Check(w *machine.World) error {
	owners := map[uint64]bool{}
	for y := 0; y < l.Grid; y++ {
		for x := 0; x < l.Grid; x++ {
			v := w.Mem.ReadWord(l.cell(x, y))
			if v > uint64(l.threads) {
				return fmt.Errorf("labyrinth: cell (%d,%d) has impossible owner %d", x, y, v)
			}
			if v != 0 {
				owners[v] = true
			}
		}
	}
	var routed uint64
	for t := 0; t < l.threads; t++ {
		routed += w.Mem.ReadWord(l.slot(t))
	}
	if routed == 0 {
		return fmt.Errorf("labyrinth: no routes claimed")
	}
	if len(owners) == 0 {
		return fmt.Errorf("labyrinth: routes counted but grid empty")
	}
	return nil
}
