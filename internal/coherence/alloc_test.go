package coherence

import (
	"testing"

	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
)

// dataCore answers every probe with data, as a core that holds the line
// without a conflict does.
type dataCore struct{}

func (dataCore) HandleProbe(p Probe) { p.ReplyData(mem.Line{}) }

// flowRig drives whole directory flows with handlers and cores that
// allocate nothing themselves, so any allocation it sees is the
// directory's.
type flowRig struct {
	eng   *sim.Engine
	dir   *Directory
	line  mem.Addr
	nacks int
}

func newFlowRig(cores int) *flowRig {
	eng := new(sim.Engine)
	r := &flowRig{eng: eng, line: 0x40}
	r.dir = NewDirectory(eng, network.New(eng, 1), mem.NewMemory(), Config{LLCLatency: 30, DRAMLatency: 100})
	cs := make([]Core, cores)
	for i := range cs {
		cs[i] = dataCore{}
	}
	r.dir.AttachCores(cs)
	return r
}

// HandleResp unblocks the line once data arrives, as a requesting core
// does after installing it, and counts nacks.
func (r *flowRig) HandleResp(resp Resp) {
	switch resp.Kind {
	case RespData:
		r.dir.SendUnblock(r.line)
	case RespNack:
		r.nacks++
	}
}

// request runs one GetS or GetX from core to completion.
func (r *flowRig) request(t *testing.T, getX bool, core int, tx bool) {
	req := ReqInfo{ID: core, IsTx: tx}
	if getX {
		r.dir.GetX(r.line, req, r)
	} else {
		r.dir.GetS(r.line, req, r)
	}
	if _, err := r.eng.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryFlowsZeroAllocs pins the pooled payloads (dirMsg,
// fwdFlow, invCollect, invTarget) on their free lists: once warm, a
// GetS, a GetX forwarded to the owner, a GetX that invalidates three
// sharers and a force-nacked request each allocate nothing.
func TestDirectoryFlowsZeroAllocs(t *testing.T) {
	flows := []struct {
		name  string
		cores int
		setup func(t *testing.T, r *flowRig)
		run   func(t *testing.T, r *flowRig, i int)
		check func(r *flowRig) bool
	}{
		{"GetS", 2,
			func(t *testing.T, r *flowRig) {
				r.request(t, false, 0, false)
				r.request(t, false, 1, false)
			},
			func(t *testing.T, r *flowRig, i int) { r.request(t, false, i&1, false) },
			func(r *flowRig) bool { st, _, sharers := r.dir.StateOf(r.line); return st == "S" && sharers == 0b11 },
		},
		{"forwarded GetX", 2,
			func(t *testing.T, r *flowRig) { r.request(t, true, 0, false) },
			func(t *testing.T, r *flowRig, i int) { r.request(t, true, (i+1)&1, false) },
			func(r *flowRig) bool { st, _, _ := r.dir.StateOf(r.line); return st == "E" && r.dir.stats.Forwards > 0 },
		},
		{"GetX invalidating 3 sharers", 4,
			func(t *testing.T, r *flowRig) { r.request(t, true, 0, false) },
			func(t *testing.T, r *flowRig, _ int) {
				for c := 1; c <= 3; c++ {
					r.request(t, false, c, false)
				}
				r.request(t, true, 0, false)
			},
			func(r *flowRig) bool {
				st, owner, _ := r.dir.StateOf(r.line)
				return st == "E" && owner == 0 && r.dir.stats.Invs > 0
			},
		},
		{"force-nacked", 2,
			func(t *testing.T, r *flowRig) {
				r.dir.ForceNack = func(ReqInfo) bool { return true }
			},
			func(t *testing.T, r *flowRig, i int) { r.request(t, true, i&1, true) },
			func(r *flowRig) bool { return r.nacks > 0 },
		},
	}
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) {
			r := newFlowRig(f.cores)
			f.setup(t, r)
			i := 0
			step := func() { f.run(t, r, i); i++ }
			for w := 0; w < 8; w++ { // warm the pools
				step()
			}
			if n := testing.AllocsPerRun(100, step); n != 0 {
				t.Errorf("%s allocates %.2f per flow, want 0", f.name, n)
			}
			if !f.check(r) {
				t.Fatalf("%s did not take the flow it pins", f.name)
			}
		})
	}
}
