package machine

import (
	"fmt"
	"testing"

	"chats/internal/cache"
	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/mem"
)

func TestDiagCauses(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBaseline, core.KindCHATS, core.KindNaiveRS} {
		for _, mk := range []func() Workload{
			func() Workload { return &counterWL{iters: 30} },
			func() Workload { return &migratoryWL{slots: 4, iters: 30} },
		} {
			w := mk()
			s := runWL(t, kind, w, testCfg())
			t.Logf("%-9s %-9s cyc=%-8d com=%-5d ab=%-5d causes=%v fb=%d sent=%d cons=%d valOK=%d val=%d pc=%d dA=%d dS=%d dN=%d dropStale=%d dropVSB=%d dropRej=%d",
				kind, w.Name(), s.Cycles, s.Commits, s.Aborts, s.ByCause, s.Fallbacks, s.SpecRespsSent, s.SpecRespsConsumed, s.ValidationsOK, s.Validations, s.ProbeConflicts, s.DecAbort, s.DecSpec, s.DecNack, s.SpecDropStale, s.SpecDropVSB, s.SpecDropReject)
		}
	}
}

// TestInvariantPanicNamesCycleCoreLine: a protocol-invariant panic
// carries the cycle, core and line, so the message alone locates it.
func TestInvariantPanicNamesCycleCoreLine(t *testing.T) {
	policy, err := core.New(core.KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	n := m.nodes[3]
	e := n.install(0x80, cache.Modified, mem.Line{}, true, false)
	defer func() {
		want := "machine: cycle 0 core 3 line 0x80: normal reply would leak speculative data"
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("panic = %q, want %q", got, want)
		}
	}()
	n.replyNormal(coherence.Probe{Line: 0x80, Kind: coherence.FwdGetS}, e)
}

// TestFlushPanicNamesCoreAndLine: the end-of-run flush refuses leftover
// speculative state and an undelivered writeback, and its panic names
// the cycle and core (and the line, for a surviving SM line or
// writeback).
func TestFlushPanicNamesCoreAndLine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		force func(n *Node)
		want  string
	}{
		{"live transaction", func(n *Node) { n.tx.Begin(1, 0) },
			"machine: cycle 0 core 2 line 0x0: transaction still active after run (active, attempt 1)"},
		{"SM line", func(n *Node) { n.install(0x80, cache.Modified, mem.Line{}, true, false) },
			"machine: cycle 0 core 2 line 0x80: speculative line survived the run"},
		{"pending writeback", func(n *Node) { n.wbPending[0xc0] = &pendingWB{n: n, tag: 0xc0} },
			"machine: cycle 0 core 2 line 0xc0: writeback still pending after the run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			policy, err := core.New(core.KindCHATS)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(testCfg(), policy)
			if err != nil {
				t.Fatal(err)
			}
			tc.force(m.nodes[2])
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Fatalf("panic = %q, want %q", got, tc.want)
				}
			}()
			m.flushCaches()
		})
	}
}

// TestNonForwardingPolicyFailureNamesCycleCoreLine: speculative data
// routed at a policy that never forwards fails with the cycle, core and
// line, whether it arrives as a demand response or a validation.
func TestNonForwardingPolicyFailureNamesCycleCoreLine(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBaseline, core.KindPower} {
		policy, err := core.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			hit  func(n *Node)
			want string
		}{
			{func(n *Node) { n.consumeSpec(0x80, coherence.Resp{Kind: coherence.RespSpec, PiC: 10}, 0) },
				"received a SpecResp it cannot consume"},
			{func(n *Node) { n.validationCheck(0x80, true, 10, true) },
				"validated a line it cannot hold"},
		} {
			m, err := New(testCfg(), policy)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("machine: cycle 0 core 1 line 0x80: %s %s", policy.Name(), tc.want)
			func() {
				defer func() {
					if got := fmt.Sprint(recover()); got != want {
						t.Errorf("panic = %q, want %q", got, want)
					}
				}()
				tc.hit(m.nodes[1])
			}()
		}
	}
}
