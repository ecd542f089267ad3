package telemetry

import (
	"fmt"
	"io"
	"sort"

	"chats/internal/mem"
)

// LineCounters attributes contention events to one cache line.
type LineCounters struct {
	Conflicts     uint64 // conflicting probes that hit this line
	Aborts        uint64 // conflicts resolved requester-wins (a tx died here)
	Forwards      uint64 // SpecResps sent for this line
	Consumes      uint64 // SpecResps accepted into a VSB
	Validations   uint64 // validation responses inspected
	ValidationsOK uint64 // entries that left the VSB validated
	Nacks         uint64 // conflicts resolved requester-stalls
	NackRetries   uint64 // demand accesses re-issued after a nack
}

// total orders lines by how much contention machinery they engaged.
func (l *LineCounters) total() uint64 {
	return l.Conflicts + l.Aborts + l.Forwards + l.Consumes + l.Nacks + l.NackRetries
}

// HotLine pairs a line address with its counters.
type HotLine struct {
	Line mem.Addr
	LineCounters
}

// HotLines returns the top-k contended lines, most contended first
// (ties break on the lower address so output is deterministic).
func (c *Collector) HotLines(k int) []HotLine {
	all := make([]HotLine, 0, len(c.hot))
	for a, lc := range c.hot {
		all = append(all, HotLine{Line: a, LineCounters: *lc})
	}
	sort.Slice(all, func(i, j int) bool {
		ti, tj := all[i].total(), all[j].total()
		if ti != tj {
			return ti > tj
		}
		return all[i].Line < all[j].Line
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// TrackedLines returns how many distinct lines saw at least one
// attributed event.
func (c *Collector) TrackedLines() int { return len(c.hot) }

// WriteHotLineReport renders the top-k profile as a fixed-width table.
func (c *Collector) WriteHotLineReport(w io.Writer, k int) {
	top := c.HotLines(k)
	fmt.Fprintf(w, "== hot lines (top %d of %d tracked) ==\n", len(top), len(c.hot))
	fmt.Fprintf(w, "%12s %9s %7s %8s %8s %9s %7s %7s\n",
		"line", "conflicts", "aborts", "forwards", "consumes", "validated", "nacks", "retries")
	for _, h := range top {
		fmt.Fprintf(w, "%12s %9d %7d %8d %8d %9d %7d %7d\n",
			h.Line.String(), h.Conflicts, h.Aborts, h.Forwards, h.Consumes,
			h.ValidationsOK, h.Nacks, h.NackRetries)
	}
	fmt.Fprintln(w)
}
