package machine_test

import (
	"testing"

	"chats/internal/machine"
)

// Native fuzz targets for the knob spec parsers. Every input must either
// be rejected with an error or parse into a config that survives the
// String round trip unchanged; nothing may panic. The seed corpora in
// testdata/fuzz replay under plain go test; extend them with
//
//	go test -run '^$' -fuzz FuzzParseFallback -fuzztime 10s ./internal/machine

func FuzzParseFallback(f *testing.F) {
	for _, s := range []string{"", "lock", "stm", "stm:locks=128", "elide", "elide:budget=8,refill=2", "lock:x=1", "stm:locks=-1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := machine.ParseFallback(spec)
		if err != nil {
			return
		}
		back, err := machine.ParseFallback(c.String())
		if err != nil {
			t.Fatalf("ParseFallback(%q) = %+v, but its String %q does not parse: %v", spec, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("ParseFallback(%q) = %+v, round trip through %q gives %+v", spec, c, c.String(), back)
		}
	})
}

func FuzzParseBackoff(f *testing.F) {
	for _, s := range []string{"", "exp", "linear", "jitter", "exp:cap=1024", "linear:cap=0", "jitter:cap=18446744073709551615", "exp:cap=-1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := machine.ParseBackoff(spec)
		if err != nil {
			return
		}
		back, err := machine.ParseBackoff(c.String())
		if err != nil {
			t.Fatalf("ParseBackoff(%q) = %+v, but its String %q does not parse: %v", spec, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("ParseBackoff(%q) = %+v, round trip through %q gives %+v", spec, c, c.String(), back)
		}
	})
}
