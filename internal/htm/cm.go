package htm

// Hot-line contention management: a per-line heat table the machine
// consults before the policy resolves a transactional conflict probe.
// A line whose recent conflict-abort count reaches the threshold is
// hot; probes for it are NACKed, so requesters back off and retry
// instead of killing the current owner. The paper's retry loop
// (randomized backoff, then the fallback path past the retry budget)
// stays in charge of every post-abort decision.
//
// Determinism: the table is machine-global mutable state updated only
// from engine events, whose strict one-at-a-time order makes every
// update land in the same order on every run. It draws no randomness.

import "chats/internal/mem"

// heatDecayEvery halves every line's heat after this many conflict
// aborts machine-wide, so stale hot spots cool off deterministically.
const heatDecayEvery = 1024

// HeatTable counts recent conflict aborts per line. All methods must
// run single-threaded, inside engine events. A nil table is off: it
// records nothing and never NACKs.
type HeatTable struct {
	threshold int
	heat      map[mem.Addr]int
	events    int // conflict aborts since the last decay
}

// NewHeatTable builds a table that marks a line hot once its decayed
// conflict-abort count reaches threshold; nil (off) for threshold 0.
func NewHeatTable(threshold int) *HeatTable {
	if threshold <= 0 {
		return nil
	}
	return &HeatTable{threshold: threshold, heat: make(map[mem.Addr]int)}
}

// NoteLineAbort records a conflict abort attributed to line, heating
// it. Heat decays by halving machine-wide every heatDecayEvery events
// so stale hot spots cool off.
func (h *HeatTable) NoteLineAbort(line mem.Addr) {
	if h == nil {
		return
	}
	h.heat[line]++
	h.events++
	if h.events >= heatDecayEvery {
		h.events = 0
		h.decay()
	}
}

// decay halves every line's heat, dropping cooled lines. Iteration
// order over the map does not matter: halving is order-independent,
// and deletions only remove zero entries.
func (h *HeatTable) decay() {
	for line, n := range h.heat {
		n /= 2
		if n == 0 {
			delete(h.heat, line)
		} else {
			h.heat[line] = n
		}
	}
}

// OverrideNack reports whether a transactional conflict probe for line
// should be NACKed instead of consulting the policy, because the line
// is currently hot.
func (h *HeatTable) OverrideNack(line mem.Addr) bool {
	return h != nil && h.heat[line] >= h.threshold
}
