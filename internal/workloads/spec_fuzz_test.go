package workloads_test

import (
	"testing"

	"chats/internal/workloads"
)

// FuzzParseSize: every input is either rejected with an error or parses
// into a size that survives the String round trip unchanged; nothing
// panics. The seed corpus in testdata/fuzz replays under plain go test;
// extend it with
//
//	go test -run '^$' -fuzz FuzzParseSize -fuzztime 10s ./internal/workloads
func FuzzParseSize(f *testing.F) {
	for _, s := range []string{"", "tiny", "small", "medium", "Small", "large", "Size(1)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sz, err := workloads.ParseSize(spec)
		if err != nil {
			return
		}
		back, err := workloads.ParseSize(sz.String())
		if err != nil {
			t.Fatalf("ParseSize(%q) = %v, but its String %q does not parse: %v", spec, sz, sz.String(), err)
		}
		if back != sz {
			t.Fatalf("ParseSize(%q) = %v, round trip through %q gives %v", spec, sz, sz.String(), back)
		}
	})
}
