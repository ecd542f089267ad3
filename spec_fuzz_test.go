package chats_test

import (
	"testing"

	"chats"
)

// FuzzParseSystem: every input is either rejected with an error or names
// a system that parses back to itself from its string form; nothing
// panics. The seed corpus in testdata/fuzz replays under plain go test;
// extend it with
//
//	go test -run '^$' -fuzz FuzzParseSystem -fuzztime 10s .
func FuzzParseSystem(f *testing.F) {
	for _, s := range []string{"", "chats", "baseline", "levc-be-ideal", "CHATS", " chats", "chats\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		k, err := chats.ParseSystem(spec)
		if err != nil {
			return
		}
		back, err := chats.ParseSystem(string(k))
		if err != nil {
			t.Fatalf("ParseSystem(%q) = %q, but it does not parse back: %v", spec, k, err)
		}
		if back != k {
			t.Fatalf("ParseSystem(%q) = %q, round trip gives %q", spec, k, back)
		}
	})
}
