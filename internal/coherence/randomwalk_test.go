package coherence

import (
	"testing"

	"chats/internal/mem"
	"chats/internal/network"
	"chats/internal/sim"
)

// modelCore is a protocol-obedient cache model for the random walk: it
// tracks which lines it holds and answers probes accordingly, sometimes
// choosing the speculative or nack paths where legal.
type modelCore struct {
	t     *testing.T
	id    int
	rig   *rig
	rnd   *sim.Rand
	lines map[mem.Addr]bool // held lines (any state)
	dirty map[mem.Addr]uint64
}

func (c *modelCore) HandleProbe(p Probe) {
	line := p.Line
	if !c.lines[line] {
		if p.Kind == InvProbe {
			p.ReplyData(mem.Line{})
		} else {
			p.ReplyNoData()
		}
		return
	}
	switch p.Kind {
	case FwdGetS:
		// stay as sharer
		p.ReplyData(mem.Line{c.dirty[line]})
	case FwdGetX:
		switch c.rnd.Intn(4) {
		case 0: // speculative response: keep ownership
			p.ReplySpec(mem.Line{c.dirty[line]}, 10)
		case 1: // nack
			p.ReplyNack()
		default:
			delete(c.lines, line)
			p.ReplyData(mem.Line{c.dirty[line]})
		}
	case InvProbe:
		if c.rnd.Intn(5) == 0 {
			p.ReplyNack()
			return
		}
		delete(c.lines, line)
		p.ReplyData(mem.Line{})
	}
}

// TestDirectoryRandomWalk fires hundreds of random GetS/GetX requests
// from protocol-obedient model cores and checks the directory's global
// invariants after every quiescent point:
//
//   - exclusive state has exactly one owner, and that owner holds the line;
//   - no line is left busy once traffic drains;
//   - a sharer recorded by the directory either holds the line or dropped
//     it silently (allowed), but an exclusive owner that answered a probe
//     normally must have given the line up.
func TestDirectoryRandomWalk(t *testing.T) {
	runDirectoryRandomWalk(t, false)
}

// The same walk with the fault hooks armed: forced nacks at the
// directory and delivery jitter on the network. Every request must still
// get exactly one response, and no line may strand requests in its queue
// (the regression the force-nack/startNext interaction once caused).
func TestDirectoryRandomWalkUnderFaults(t *testing.T) {
	runDirectoryRandomWalk(t, true)
}

func runDirectoryRandomWalk(t *testing.T, faulty bool) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := &rig{eng: new(sim.Engine), memry: mem.NewMemory()}
		r.net = network.New(r.eng, 1)
		r.dir = NewDirectory(r.eng, r.net, r.memry, Config{LLCLatency: 10, DRAMLatency: 40})
		rnd := sim.NewRand(seed)
		var models []*modelCore
		var cores []Core
		for i := 0; i < 6; i++ {
			mc := &modelCore{t: t, id: i, rig: r, rnd: sim.NewRand(seed*100 + uint64(i)),
				lines: map[mem.Addr]bool{}, dirty: map[mem.Addr]uint64{}}
			models = append(models, mc)
			cores = append(cores, mc)
		}
		r.dir.AttachCores(cores)
		if faulty {
			frnd := sim.NewRand(seed * 7919)
			r.dir.ForceNack = func(ReqInfo) bool { return frnd.Intn(10) == 0 }
			jrnd := sim.NewRand(seed * 104729)
			r.net.Jitter = func() uint64 { return jrnd.Uint64n(5) }
		}

		pending := 0 // requests issued minus responses delivered
		lines := []mem.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100}
		for step := 0; step < 400; step++ {
			id := rnd.Intn(len(models))
			line := lines[rnd.Intn(len(lines))]
			isX := rnd.Intn(2) == 0
			mc := models[id]
			pending++
			handler := RespFunc(func(resp Resp) {
				pending--
				switch resp.Kind {
				case RespData:
					mc.lines[line] = true
					mc.dirty[line] = resp.Data[0]
					r.send(func() { r.dir.Unblock(line) })
				case RespSpec:
					// fiction: do not record ownership
				case RespNack:
				}
			})
			req := ReqInfo{ID: id, IsTx: true}
			if isX {
				r.send(func() { r.dir.GetX(line, req, handler) })
			} else {
				r.send(func() { r.dir.GetS(line, req, handler) })
			}
			// Occasionally a core silently drops a line (abort / eviction).
			if rnd.Intn(6) == 0 {
				victim := models[rnd.Intn(len(models))]
				for l := range victim.lines {
					delete(victim.lines, l)
					break
				}
			}
			if _, err := r.eng.Run(10_000_000); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if pending != 0 {
				t.Fatalf("seed %d step %d: %d requests never answered", seed, step, pending)
			}
			for _, line := range lines {
				st, owner, sharers := r.dir.StateOf(line)
				if r.dir.Busy(line) {
					t.Fatalf("seed %d step %d: line %v busy after drain", seed, step, line)
				}
				if n := r.dir.QueuedLen(line); n != 0 {
					t.Fatalf("seed %d step %d: line %v stranded %d queued requests", seed, step, line, n)
				}
				switch st {
				case "E":
					if owner < 0 || owner >= len(models) {
						t.Fatalf("seed %d: bad owner %d", seed, owner)
					}
				case "S":
					if sharers == 0 {
						t.Fatalf("seed %d: shared with empty sharer set", seed)
					}
				}
			}
		}
	}
}
