// Package faults defines a deterministic fault-injection plan for the
// simulated machine: adversarial-but-reproducible events at the HTM
// layer (spurious best-effort aborts, forced VSB pressure, forced
// validation failures), the coherence/network layer (latency jitter,
// forced directory NACKs) and the machine layer (power-token denial,
// fallback-lock contention bursts).
//
// Every injection decision is drawn from a sim.Rand seeded from the run
// seed, and every draw happens at engine time, so a faulted run is as
// bit-reproducible as a clean one: the same seed produces the same fault
// schedule at -j 1 and -j N, across reruns and across machines.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"chats/internal/sim"
)

// Plan is a parsed fault-injection specification. A zero Plan injects
// nothing. Probabilities are per decision point (per transactional
// memory access for Spurious, per SpecResp for VSBFull, per validation
// response for ValFail, per message for Jitter, per transactional
// directory request for Nack, per token acquisition for PowerDeny, per
// fallback entry for LockBurst).
type Plan struct {
	Spurious float64 // spurious best-effort abort on a transactional access
	VSBFull  float64 // pretend the VSB is full when a SpecResp arrives
	ValFail  float64 // force a value mismatch on a validation response

	Jitter    float64 // extra latency on a network message
	JitterMax uint64  // maximum extra cycles per jittered message (default 8)

	Nack float64 // bounce a transactional request at the directory

	PowerDeny float64 // deny a power-token acquisition
	LockBurst float64 // hold the fallback lock for extra cycles on entry
	// LockBurstCycles is the length of an injected lock-contention burst
	// (default 500).
	LockBurstCycles uint64
}

// faultNames lists the spec grammar's fault names in canonical order.
var faultNames = []string{"spurious", "vsbfull", "valfail", "jitter", "nack", "powerdeny", "lockburst"}

// SoakSpec is the canonical all-kinds plan the fault soak (tests, CI and
// chats-experiments -faults-soak) runs under: every fault kind enabled
// at rates aggressive enough to exercise the recovery paths while still
// letting every system finish a small workload.
const SoakSpec = "spurious:p=0.02;vsbfull:p=0.05;valfail:p=0.05;jitter:p=0.1,max=6;nack:p=0.05;powerdeny:p=0.5;lockburst:p=0.2,cycles=200"

// SoakPlan returns the parsed SoakSpec.
func SoakPlan() Plan {
	p, err := Parse(SoakSpec)
	if err != nil {
		panic("faults: SoakSpec does not parse: " + err.Error())
	}
	return p
}

// ParseFlag is Parse for a command line's -faults value, where "soak"
// names SoakSpec.
func ParseFlag(spec string) (Plan, error) {
	if spec == "soak" {
		spec = SoakSpec
	}
	return Parse(spec)
}

const (
	defaultJitterMax       = 8
	defaultLockBurstCycles = 500
)

// Parse reads a fault spec of the form
//
//	name:key=val[,key=val...][;name:key=val...]
//
// e.g. "spurious:p=0.01;jitter:p=0.2,max=16;nack:p=0.05". Every fault
// takes p= (probability in [0,1]); jitter also takes max= (cycles),
// and lockburst takes cycles=. Unknown names and keys are errors that
// list the valid options.
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, args, _ := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		kv := map[string]string{}
		if strings.TrimSpace(args) != "" {
			for _, pair := range strings.Split(args, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					return Plan{}, fmt.Errorf("faults: %q: malformed option %q (want key=value)", name, pair)
				}
				kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
		}
		prob := func() (float64, error) {
			s, ok := kv["p"]
			if !ok {
				return 0, fmt.Errorf("faults: %q: missing p= probability", name)
			}
			delete(kv, "p")
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || !(f >= 0 && f <= 1) { // also rejects NaN
				return 0, fmt.Errorf("faults: %q: p=%q is not a probability in [0,1]", name, s)
			}
			return f, nil
		}
		cycles := func(key string, def uint64) (uint64, error) {
			s, ok := kv[key]
			if !ok {
				return def, nil
			}
			delete(kv, key)
			u, err := strconv.ParseUint(s, 10, 64)
			if err != nil || u == 0 {
				return 0, fmt.Errorf("faults: %q: %s=%q is not a positive cycle count", name, key, s)
			}
			return u, nil
		}
		var err error
		switch name {
		case "spurious":
			p.Spurious, err = prob()
		case "vsbfull":
			p.VSBFull, err = prob()
		case "valfail":
			p.ValFail, err = prob()
		case "jitter":
			if p.Jitter, err = prob(); err == nil {
				p.JitterMax, err = cycles("max", defaultJitterMax)
			}
		case "nack":
			p.Nack, err = prob()
		case "powerdeny":
			p.PowerDeny, err = prob()
		case "lockburst":
			if p.LockBurst, err = prob(); err == nil {
				p.LockBurstCycles, err = cycles("cycles", defaultLockBurstCycles)
			}
		default:
			return Plan{}, fmt.Errorf("faults: unknown fault %q (valid: %s)", name, strings.Join(faultNames, ", "))
		}
		if err != nil {
			return Plan{}, err
		}
		if len(kv) > 0 {
			keys := make([]string, 0, len(kv))
			for k := range kv {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return Plan{}, fmt.Errorf("faults: %q: unknown option(s) %s", name, strings.Join(keys, ", "))
		}
	}
	// A fault at p=0 is off and String omits it, so its options revert
	// to the zero plan's and the plan round-trips.
	if p.Jitter == 0 {
		p.JitterMax = 0
	}
	if p.LockBurst == 0 {
		p.LockBurstCycles = 0
	}
	return p, p.Validate()
}

// Validate reports out-of-range plan fields.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"spurious", p.Spurious}, {"vsbfull", p.VSBFull}, {"valfail", p.ValFail},
		{"jitter", p.Jitter}, {"nack", p.Nack}, {"powerdeny", p.PowerDeny}, {"lockburst", p.LockBurst},
	} {
		if !(f.v >= 0 && f.v <= 1) { // also rejects NaN
			return fmt.Errorf("faults: %s probability %v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.Spurious > 0 || p.VSBFull > 0 || p.ValFail > 0 ||
		p.Jitter > 0 || p.Nack > 0 || p.PowerDeny > 0 || p.LockBurst > 0
}

// String renders the plan in the canonical spec grammar (parsable by
// Parse; empty for a zero plan). Diagnostics embed it so a failing cell
// can be reproduced from the error message alone.
func (p Plan) String() string {
	var parts []string
	add := func(name string, prob float64, extra string) {
		if prob <= 0 {
			return
		}
		s := name + ":p=" + strconv.FormatFloat(prob, 'g', -1, 64)
		if extra != "" {
			s += "," + extra
		}
		parts = append(parts, s)
	}
	add("spurious", p.Spurious, "")
	add("vsbfull", p.VSBFull, "")
	add("valfail", p.ValFail, "")
	jmax := p.JitterMax
	if jmax == 0 {
		jmax = defaultJitterMax
	}
	add("jitter", p.Jitter, "max="+strconv.FormatUint(jmax, 10))
	add("nack", p.Nack, "")
	add("powerdeny", p.PowerDeny, "")
	lcyc := p.LockBurstCycles
	if lcyc == 0 {
		lcyc = defaultLockBurstCycles
	}
	add("lockburst", p.LockBurst, "cycles="+strconv.FormatUint(lcyc, 10))
	return strings.Join(parts, ";")
}

// Stats counts injections per fault kind.
type Stats struct {
	Spurious    uint64
	VSBFull     uint64
	ValFail     uint64
	Jitter      uint64
	Nacks       uint64
	PowerDenies uint64
	LockBursts  uint64
}

// Total sums every injection.
func (s Stats) Total() uint64 {
	return s.Spurious + s.VSBFull + s.ValFail + s.Jitter + s.Nacks + s.PowerDenies + s.LockBursts
}

// Injector draws the plan's injection decisions from one deterministic
// PRNG. All methods must be called at engine time (single goroutine) so
// the draw order — and with it the fault schedule — is reproducible.
type Injector struct {
	Plan  Plan
	Stats Stats
	rng   *sim.Rand
}

// NewInjector builds an injector for one run. The rng must be dedicated
// to the injector (sharing a stream with other consumers would make the
// fault schedule depend on their draw order).
func NewInjector(p Plan, rng *sim.Rand) *Injector {
	return &Injector{Plan: p, rng: rng}
}

// draw flips a p-biased coin. Disabled kinds never touch the PRNG, so
// enabling one fault does not reshuffle another's schedule.
func (in *Injector) draw(p float64) bool {
	return p > 0 && in.rng.Float64() < p
}

// SpuriousAbort decides whether a transactional access dies spuriously.
func (in *Injector) SpuriousAbort() bool {
	if in.draw(in.Plan.Spurious) {
		in.Stats.Spurious++
		return true
	}
	return false
}

// VSBFull decides whether an arriving SpecResp sees artificial VSB
// pressure (treated exactly like a full buffer: retry, then abort).
func (in *Injector) VSBFull() bool {
	if in.draw(in.Plan.VSBFull) {
		in.Stats.VSBFull++
		return true
	}
	return false
}

// ValFail decides whether a validation response is forced to mismatch,
// as if the producer had overwritten the forwarded line.
func (in *Injector) ValFail() bool {
	if in.draw(in.Plan.ValFail) {
		in.Stats.ValFail++
		return true
	}
	return false
}

// JitterDelay returns extra cycles of latency for one message (0 = no
// injection).
func (in *Injector) JitterDelay() uint64 {
	if !in.draw(in.Plan.Jitter) {
		return 0
	}
	in.Stats.Jitter++
	max := in.Plan.JitterMax
	if max == 0 {
		max = defaultJitterMax
	}
	return 1 + in.rng.Uint64n(max)
}

// ForceNack decides whether the directory bounces a transactional
// request.
func (in *Injector) ForceNack() bool {
	if in.draw(in.Plan.Nack) {
		in.Stats.Nacks++
		return true
	}
	return false
}

// DenyPower decides whether a power-token acquisition is refused even
// though the token is free.
func (in *Injector) DenyPower() bool {
	if in.draw(in.Plan.PowerDeny) {
		in.Stats.PowerDenies++
		return true
	}
	return false
}

// LockBurstDelay returns extra cycles a thread holds the fallback lock
// before running its body (0 = no injection), manufacturing the lock
// convoys that stress the lock-subscription abort path.
func (in *Injector) LockBurstDelay() uint64 {
	if !in.draw(in.Plan.LockBurst) {
		return 0
	}
	in.Stats.LockBursts++
	cycles := in.Plan.LockBurstCycles
	if cycles == 0 {
		cycles = defaultLockBurstCycles
	}
	return cycles
}
