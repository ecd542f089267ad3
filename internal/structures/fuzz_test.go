package structures

import (
	"sort"
	"testing"

	"chats/internal/sim"
)

// FuzzStructures: a random sequence of Insert/Find/Update/Remove runs on
// a List, a HashSet and a Treap through Direct, and every result agrees
// with a Go map; afterwards the sizes match the map, the list keys are
// sorted and the treap's Scan yields exactly the map's keys and values
// in key order, with BST and heap order intact. Each op is two bytes: the
// op (mod 4) and the key (mod 64). The seed corpus in testdata/fuzz
// replays under plain go test; extend it with
//
//	go test -run '^$' -fuzz FuzzStructures -fuzztime 10s ./internal/structures
func FuzzStructures(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 0, 9, 1, 5, 1, 4, 2, 1, 3, 5, 3, 5, 1, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		m, al := testMem()
		n := len(ops)/2 + 1
		lp := NewPool(al, n, ListNodeWords)
		hp := NewPool(al, n, ListNodeWords)
		tp := NewPool(al, n, TreapNodeWords)
		l, h, tr := NewList(al), NewHashSet(al, 4), NewTreap(al)
		prio := sim.NewRand(uint64(len(ops)))
		model := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			key, val := uint64(ops[i+1]%64), uint64(i)
			mv, exists := model[key]
			switch ops[i] % 4 {
			case 0:
				li := l.Insert(m, lp.Get(), key, val)
				hi := h.Insert(m, hp.Get(), key, val)
				ti := tr.Insert(m, tp.Get(), key, val, prio.Uint64())
				if li == exists || hi == exists || ti == exists {
					t.Fatalf("op %d: Insert(%d) = list %v, hash %v, treap %v; key present: %v", i/2, key, li, hi, ti, exists)
				}
				if !exists {
					model[key] = val
				}
			case 1:
				lv, lok := l.Find(m, key)
				hv, hok := h.Find(m, key)
				tv, tok := tr.Find(m, key)
				if lok != exists || hok != exists || tok != exists ||
					(exists && (lv != mv || hv != mv || tv != mv)) {
					t.Fatalf("op %d: Find(%d) = list %d/%v, hash %d/%v, treap %d/%v; want %d/%v",
						i/2, key, lv, lok, hv, hok, tv, tok, mv, exists)
				}
			case 2:
				lu, hu, tu := l.Update(m, key, val), h.Update(m, key, val), tr.Update(m, key, val)
				if lu != exists || hu != exists || tu != exists {
					t.Fatalf("op %d: Update(%d) = list %v, hash %v, treap %v; key present: %v", i/2, key, lu, hu, tu, exists)
				}
				if exists {
					model[key] = val
				}
			case 3:
				lv, lok := l.Remove(m, key)
				hv, hok := h.Remove(m, key)
				tv, tok := tr.Remove(m, key)
				if lok != exists || hok != exists || tok != exists ||
					(exists && (lv != mv || hv != mv || tv != mv)) {
					t.Fatalf("op %d: Remove(%d) = list %d/%v, hash %d/%v, treap %d/%v; want %d/%v",
						i/2, key, lv, lok, hv, hok, tv, tok, mv, exists)
				}
				delete(model, key)
			}
		}
		if l.Len(m) != len(model) || h.Len(m) != len(model) {
			t.Fatalf("sizes: list %d, hash %d; want %d", l.Len(m), h.Len(m), len(model))
		}
		ks := l.Keys(m)
		if !sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i] < ks[j] }) {
			t.Fatalf("list keys out of order: %v", ks)
		}
		if err := scanMatches(m, tr, model); err != nil {
			t.Fatalf("treap: %v", err)
		}
	})
}
