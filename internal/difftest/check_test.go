package difftest_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/htm"
	"chats/internal/randprog"
	"chats/internal/runstore"
)

// runSig is the part of a runstore.Record that a run determines.
type runSig struct {
	System    string
	SimCycles uint64
	Counters  map[string]uint64
	ByCause   map[string]uint64
}

// probePanicPolicy panics at engine time, on its first conflict.
type probePanicPolicy struct{ htm.Policy }

func (probePanicPolicy) DecideProbe(*htm.TxState, htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	panic("policy bug")
}

// checkRecorded runs check with a Record hook and returns its error
// text and the records it delivered, in delivery order.
func checkRecorded(opts difftest.Options, check func(difftest.Options) error) (string, []runSig) {
	var sigs []runSig
	opts.Record = func(r runstore.Record) {
		sigs = append(sigs, runSig{r.System, r.SimCycles, r.Counters, r.ByCause})
	}
	if err := check(opts); err != nil {
		return err.Error(), sigs
	}
	return "", sigs
}

// serialCheck is the one-system-after-another loop Check must match,
// over kinds.
func serialCheck(p *randprog.Program, kinds []core.Kind, opts difftest.Options) (msgs []string, sigs []runSig) {
	for _, kind := range kinds {
		msg, s := checkRecorded(opts, func(o difftest.Options) error { return difftest.CheckSystem(p, kind, o) })
		if msg != "" {
			msgs = append(msgs, msg)
		}
		sigs = append(sigs, s...)
	}
	return msgs, sigs
}

// TestCheckMatchesSerial: Check must report exactly what a plain loop
// over CheckSystem reports — the same joined error text and the same
// records in system order — whether all systems pass or several fail.
// When one system panics, Check survives it: that system's error names
// the panic and the others report as they do in the loop.
func TestCheckMatchesSerial(t *testing.T) {
	g := randprog.Preset(1)
	g.AddFrac = 0.5
	g.ChainFrac = 0.6
	progs := map[string]*randprog.Program{
		"seed1": randprog.Generate(1, g),
		"seed2": randprog.Generate(2, g),
	}
	corpus := loadCorpus(t)
	for _, name := range []string{"chain-motif", "chain-forward-then-modify"} {
		progs[name] = corpus[name]
	}
	kinds := difftest.Systems()
	const panicker = core.KindPower
	cases := []struct {
		name     string
		wrap     func(core.Kind, htm.Policy) htm.Policy
		panicIdx int // index in kinds of the panicking system, or -1
	}{
		{"clean", nil, -1},
		{"broken-validation", func(_ core.Kind, p htm.Policy) htm.Policy { return skipValidation(p) }, -1},
		{"one-panics", func(k core.Kind, p htm.Policy) htm.Policy {
			if k == panicker {
				return probePanicPolicy{p}
			}
			return p
		}, slices.Index(kinds, panicker)},
	}
	for _, tc := range cases {
		for name, p := range progs {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				opts := difftest.Options{Wrap: tc.wrap}
				got, gotSigs := checkRecorded(opts, func(o difftest.Options) error { return difftest.Check(p, o) })
				if tc.panicIdx < 0 {
					msgs, wantSigs := serialCheck(p, kinds, opts)
					want := ""
					if len(msgs) > 0 {
						want = "difftest: " + strings.Join(msgs, "; ")
					}
					if got != want {
						t.Errorf("Check error:\n got %q\nwant %q", got, want)
					}
					if tc.name == "broken-validation" && len(msgs) < 2 {
						t.Errorf("only %d system(s) failed; the case needs several", len(msgs))
					}
					if !reflect.DeepEqual(gotSigs, wantSigs) {
						t.Errorf("records:\n got %+v\nwant %+v", gotSigs, wantSigs)
					}
					return
				}
				// The panicking system cannot run in a serial loop; the
				// others must report as they do there, around its error.
				before, beforeSigs := serialCheck(p, kinds[:tc.panicIdx], opts)
				after, afterSigs := serialCheck(p, kinds[tc.panicIdx+1:], opts)
				head := "difftest: " + strings.Join(append(before,
					fmt.Sprintf("%s: sweep: cell %d panicked: policy bug\n", panicker, tc.panicIdx)), "; ")
				if !strings.HasPrefix(got, head) {
					t.Errorf("Check error %q does not start with %q", got, head)
				}
				if len(after) > 0 && !strings.HasSuffix(got, "; "+strings.Join(after, "; ")) {
					t.Errorf("Check error %q does not end with the serial errors %q", got, after)
				}
				if n := strings.Count(got, "panicked"); n != 1 {
					t.Errorf("%d system errors mention a panic, want 1: %q", n, got)
				}
				if want := append(beforeSigs, afterSigs...); !reflect.DeepEqual(gotSigs, want) {
					t.Errorf("records:\n got %+v\nwant %+v", gotSigs, want)
				}
			})
		}
	}
}
