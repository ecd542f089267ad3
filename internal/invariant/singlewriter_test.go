package invariant

import (
	"slices"
	"testing"

	"chats/internal/htm"
	"chats/internal/mem"
)

// swCore is one other core as the single-writer rule sees it.
type swCore struct {
	status htm.Status
	ws     []mem.Addr // write-set lines, ascending
	vsb    []mem.Addr // VSB lines
}

// singleWriterCases pins the single-writer rule: a committing core's
// write set may overlap another live transaction's only inside that
// core's VSB. The first reported violation is the lowest overlapping
// core, and within it the smallest line.
var singleWriterCases = []struct {
	name  string
	self  int
	ws    []mem.Addr
	cores []swCore // indexed by core id; cores[self] is ignored
	want  string
}{
	{name: "empty write set", self: 0, ws: nil,
		cores: []swCore{{}, {status: htm.Active, ws: []mem.Addr{0x80}}}},
	{name: "disjoint", self: 0, ws: []mem.Addr{0x80, 0xc0},
		cores: []swCore{{}, {status: htm.Active, ws: []mem.Addr{0x100, 0x140}}}},
	{name: "overlap outside VSB", self: 0, ws: []mem.Addr{0x80, 0xc0},
		cores: []swCore{{}, {status: htm.Active, ws: []mem.Addr{0xc0, 0x100}}},
		want:  "cycle 7: core 0 commits line 0xc0 while core 1 also holds it in its write set outside the VSB (two real owners)"},
	{name: "smallest line", self: 1, ws: []mem.Addr{0x80, 0xc0, 0x100},
		cores: []swCore{{status: htm.Active, ws: []mem.Addr{0x80, 0xc0, 0x100}}, {}},
		want:  "cycle 7: core 1 commits line 0x80 while core 0 also holds it in its write set outside the VSB (two real owners)"},
	{name: "lowest core", self: 0, ws: []mem.Addr{0x80},
		cores: []swCore{{}, {status: htm.Idle}, {status: htm.Active, ws: []mem.Addr{0x80}}, {status: htm.Active, ws: []mem.Addr{0x80}}},
		want:  "cycle 7: core 0 commits line 0x80 while core 2 also holds it in its write set outside the VSB (two real owners)"},
	{name: "lowest core before smallest line", self: 0, ws: []mem.Addr{0x80, 0x100},
		cores: []swCore{{}, {status: htm.Active, ws: []mem.Addr{0x100}}, {status: htm.Active, ws: []mem.Addr{0x80}}},
		want:  "cycle 7: core 0 commits line 0x100 while core 1 also holds it in its write set outside the VSB (two real owners)"},
	{name: "committing owner", self: 2, ws: []mem.Addr{0x140},
		cores: []swCore{{status: htm.Committing, ws: []mem.Addr{0x140}}, {}, {}},
		want:  "cycle 7: core 2 commits line 0x140 while core 0 also holds it in its write set outside the VSB (two real owners)"},
	{name: "overlap inside VSB", self: 0, ws: []mem.Addr{0x80, 0xc0},
		cores: []swCore{{}, {status: htm.Active, ws: []mem.Addr{0x80, 0xc0}, vsb: []mem.Addr{0xc0, 0x80}}}},
	{name: "VSB covers one line only", self: 0, ws: []mem.Addr{0x80, 0xc0},
		cores: []swCore{{}, {status: htm.Committing, ws: []mem.Addr{0x80, 0xc0}, vsb: []mem.Addr{0x80}}},
		want:  "cycle 7: core 0 commits line 0xc0 while core 1 also holds it in its write set outside the VSB (two real owners)"},
	{name: "idle aborted fallback", self: 0, ws: []mem.Addr{0x80},
		cores: []swCore{{}, {status: htm.Idle, ws: []mem.Addr{0x80}}, {status: htm.Aborted, ws: []mem.Addr{0x80}}, {status: htm.Fallback, ws: []mem.Addr{0x80}}}},
}

// swView serves a table row's cores through the txView accessors.
type swView []swCore

func (v swView) NumCores() int                     { return len(v) }
func (v swView) TxStatus(i int) htm.Status         { return v[i].status }
func (v swView) InWriteSet(i int, a mem.Addr) bool { return slices.Contains(v[i].ws, a) }
func (v swView) InVSB(i int, a mem.Addr) bool      { return slices.Contains(v[i].vsb, a) }

func TestSingleWriterRule(t *testing.T) {
	for _, tc := range singleWriterCases {
		if got := singleWriter(swView(tc.cores), 7, tc.self, tc.ws); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
