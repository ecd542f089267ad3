package machine

import (
	"fmt"
	"slices"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
)

// accessorProbe compares, at every transactional event, each core's
// single-field accessors against its CoreSnapshot.
type accessorProbe struct {
	NopTracer
	m      *Machine
	events int
	err    error
}

func (p *accessorProbe) check(cycle uint64) {
	p.events++
	if p.err != nil {
		return
	}
	var buf []mem.Addr
	for i := 0; i < p.m.NumCores(); i++ {
		s := p.m.CoreSnapshot(i)
		buf = p.m.AppendWriteSet(buf[:0], i)
		switch {
		case p.m.TxStatus(i) != s.Status, p.m.TxCons(i) != s.Cons, p.m.TxPiC(i) != s.PiC, p.m.VSBLen(i) != s.VSBLen:
			p.err = fmt.Errorf("cycle %d core %d: accessors disagree with %+v", cycle, i, s)
		case !slices.Equal(buf, s.WriteSet):
			p.err = fmt.Errorf("cycle %d core %d: AppendWriteSet %v, snapshot %v", cycle, i, buf, s.WriteSet)
		}
		for _, a := range s.WriteSet {
			if !p.m.InWriteSet(i, a) {
				p.err = fmt.Errorf("cycle %d core %d: InWriteSet(%v) false", cycle, i, a)
			}
		}
		for _, a := range s.VSBLines {
			if !p.m.InVSB(i, a) {
				p.err = fmt.Errorf("cycle %d core %d: InVSB(%v) false", cycle, i, a)
			}
		}
		for _, a := range s.ReadSet { // read-only lines are in neither
			if !slices.Contains(s.WriteSet, a) && p.m.InWriteSet(i, a) {
				p.err = fmt.Errorf("cycle %d core %d: InWriteSet(%v) true for a read", cycle, i, a)
			}
			if !slices.Contains(s.VSBLines, a) && p.m.InVSB(i, a) {
				p.err = fmt.Errorf("cycle %d core %d: InVSB(%v) true outside the VSB", cycle, i, a)
			}
		}
	}
}

func (p *accessorProbe) TxBegin(cycle uint64, core, attempt int, power bool)  { p.check(cycle) }
func (p *accessorProbe) TxCommit(cycle uint64, core int, consumed int)        { p.check(cycle) }
func (p *accessorProbe) TxAbort(cycle uint64, core int, cause htm.AbortCause) { p.check(cycle) }
func (p *accessorProbe) Forward(cycle uint64, producer, requester int, line mem.Addr, pic coherence.PiC) {
	p.check(cycle)
}
func (p *accessorProbe) Consume(cycle uint64, core int, line mem.Addr, pic coherence.PiC) {
	p.check(cycle)
}
func (p *accessorProbe) Validate(cycle uint64, core int, line mem.Addr, ok bool) { p.check(cycle) }
func (p *accessorProbe) Fallback(cycle uint64, core int)                         { p.check(cycle) }

// TestTxAccessorsMatchSnapshot: the per-field accessors the invariant
// checker reads on its hot path report exactly what CoreSnapshot does,
// on forwarding-heavy runs of the chaining systems.
func TestTxAccessorsMatchSnapshot(t *testing.T) {
	for _, kind := range []core.Kind{core.KindCHATS, core.KindNaiveRS, core.KindPCHATS} {
		t.Run(string(kind), func(t *testing.T) {
			policy, err := core.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(testCfg(), policy)
			if err != nil {
				t.Fatal(err)
			}
			probe := &accessorProbe{m: m}
			m.SetTracer(probe)
			if _, err := m.Run(&migratoryWL{slots: 4, iters: 25}); err != nil {
				t.Fatal(err)
			}
			if probe.err != nil {
				t.Fatal(probe.err)
			}
			if s := m.Stats(); probe.events == 0 || s.SpecRespsConsumed == 0 {
				t.Fatalf("run exercised too little: %d events, %d spec responses consumed", probe.events, s.SpecRespsConsumed)
			}
		})
	}
}
