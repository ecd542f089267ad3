package randprog

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chats/internal/sim"
)

// scanReplay is Replay as it was before the block index: every replayed
// block is found by scanning its core's sequence. It is the reference
// the indexed Replay must match, results and errors alike.
func scanReplay(p *Program, order []BlockRef) (*State, error) {
	seen := make(map[BlockRef]bool, len(order))
	for _, ref := range order {
		if seen[ref] {
			return nil, fmt.Errorf("randprog: replay order repeats block %+v", ref)
		}
		seen[ref] = true
	}
	if want := p.NumBlocks(-1); len(order) != want {
		return nil, fmt.Errorf("randprog: replay order has %d blocks, program has %d", len(order), want)
	}
	st := p.InitState()
	for _, ref := range order {
		if ref.Core < 0 || ref.Core >= p.Cores {
			return nil, fmt.Errorf("randprog: replay references core %d of %d", ref.Core, p.Cores)
		}
		var ops []Op
		idx, found := 0, false
		for _, a := range p.Seq[ref.Core] {
			if a.Kind != ActBlock {
				continue
			}
			if idx == ref.Index {
				ops, found = a.Ops, true
				break
			}
			idx++
		}
		if !found {
			return nil, fmt.Errorf("randprog: replay references block %d of core %d (has %d)", ref.Index, ref.Core, idx)
		}
		acc := blockAcc(ref.Core, ref.Index)
		for _, op := range ops {
			switch op.Kind {
			case OpLoad:
				acc = acc*mixMul + st.Shared[op.Slot]
			case OpStore:
				st.Shared[op.Slot] = acc + op.Arg
			case OpAdd:
				st.Shared[op.Slot] += op.Arg
			}
		}
	}
	for c, seq := range p.Seq {
		for _, a := range seq {
			if a.Kind == ActStore {
				st.Priv[c][a.Slot] = a.Arg
			}
		}
	}
	return st, nil
}

// replayOrders returns the orders a program is replayed in: serial,
// reversed, a seeded shuffle, and three broken ones whose first bad
// reference is an out-of-range block index, a negative one and an
// out-of-range core.
func replayOrders(p *Program, seed uint64) [][]BlockRef {
	serial := p.SerialOrder()
	rev := make([]BlockRef, len(serial))
	for i, ref := range serial {
		rev[len(serial)-1-i] = ref
	}
	shuf := append([]BlockRef(nil), serial...)
	r := sim.NewRand(seed)
	for i := len(shuf) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuf[i], shuf[j] = shuf[j], shuf[i]
	}
	orders := [][]BlockRef{serial, rev, shuf}
	if len(serial) == 0 {
		return orders
	}
	last := serial[len(serial)-1]
	for _, bad := range []BlockRef{
		{Core: last.Core, Index: last.Index + 1},
		{Core: last.Core, Index: -1},
		{Core: p.Cores, Index: 0},
	} {
		o := append([]BlockRef(nil), shuf...)
		o[len(o)/2] = bad
		orders = append(orders, o)
	}
	return orders
}

// TestReplayMatchesScan: the indexed Replay gives the scanning replay's
// final state, or its exact error, on the difftest corpus and on
// generated programs of every preset size, in valid and broken orders.
func TestReplayMatchesScan(t *testing.T) {
	progs := map[string]*Program{}
	paths, err := filepath.Glob(filepath.Join("..", "difftest", "corpus", "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %d files, %v", len(paths), err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			p, err := Parse(line)
			if err != nil {
				t.Fatalf("%s:%d: %v", path, i+1, err)
			}
			progs[fmt.Sprintf("%s:%d", filepath.Base(path), i+1)] = p
		}
	}
	for level := 0; level <= 2; level++ {
		g := Preset(level)
		g.AddFrac = 0.5 // order-sensitive stores, so a wrong block shows
		for seed := uint64(1); seed <= 20; seed++ {
			progs[fmt.Sprintf("gen-l%d-s%d", level, seed)] = Generate(seed, g)
		}
	}
	errs, broken := 0, 0
	for name, p := range progs {
		orders := replayOrders(p, uint64(len(name)))
		broken += len(orders) - 3
		for k, order := range orders {
			want, wantErr := scanReplay(p, order)
			got, gotErr := p.Replay(order)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s order %d: error %v, want %v", name, k, gotErr, wantErr)
			}
			if wantErr != nil {
				errs++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s order %d: state %+v, want %+v", name, k, got, want)
			}
		}
	}
	if errs != broken {
		t.Fatalf("%d orders were rejected, want the %d broken ones", errs, broken)
	}
}
