package htm

import "testing"

// FuzzParseCM: every input is either rejected with an error or parses
// into a config that survives the String round trip unchanged; nothing
// may panic. The seed corpus in testdata/fuzz replays under plain go
// test; extend it with
//
//	go test -run '^$' -fuzz FuzzParseCM -fuzztime 10s ./internal/htm
func FuzzParseCM(f *testing.F) {
	for _, s := range []string{"", "fixed", "adaptive", "adaptive:window=16,spec=0.25,wait=64,cap=65536,fallbackafter=8,hotline=0", "adaptive:spec=1e-3", "adaptive:wait=10,cap=5", "fixed:window=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseCM(spec)
		if err != nil {
			return
		}
		back, err := ParseCM(c.String())
		if err != nil {
			t.Fatalf("ParseCM(%q) = %+v, but its String %q does not parse: %v", spec, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("ParseCM(%q) = %+v, round trip through %q gives %+v", spec, c, c.String(), back)
		}
	})
}
