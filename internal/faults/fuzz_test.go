package faults

import "testing"

// FuzzParseFaults: every fault spec either fails to parse with an error
// or parses into a plan that survives the String round trip unchanged;
// nothing panics. The seed corpus in testdata/fuzz replays under plain
// go test; extend it with
//
//	go test -run '^$' -fuzz FuzzParseFaults -fuzztime 10s ./internal/faults
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{"", SoakSpec, "spurious:p=0.01", "jitter:p=0.2,max=16", "nack:p=0.05",
		"lockburst:p=0.1,cycles=200", "bogus:p=1", "jitter:p=0.5,max=0", "spurious"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, but its String %q does not parse: %v", spec, p, p.String(), err)
		}
		if back != p {
			t.Fatalf("Parse(%q) = %+v, round trip through %q gives %+v", spec, p, p.String(), back)
		}
	})
}
