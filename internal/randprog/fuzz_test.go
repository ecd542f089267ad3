package randprog_test

import (
	"reflect"
	"testing"

	"chats/internal/randprog"
)

// FuzzParse: every rp1 spec either fails to parse with an error or
// parses into a program that survives the String round trip unchanged;
// nothing panics. The seed corpus in testdata/fuzz replays under plain
// go test; extend it with
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/randprog
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"rp1;cores=1;pool=2;pack=1;priv=0|[l0,s1+5]",
		"rp1;cores=2;pool=4;pack=2;priv=2|[l0,a0+3,w10] S0+7 L3|W25 [s2+1] [l1,l2,a3+9,w1]",
		"rp1;cores=3;pool=6;pack=1;priv=1|||[a5+2]",
		"rp1;cores=1;pool=9223372036854775807;pack=1;priv=0|L0",
		randprog.Generate(1, randprog.Preset(1)).String(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := randprog.Parse(spec)
		if err != nil {
			return
		}
		back, err := randprog.Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, but its String %q does not parse: %v", spec, p, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("Parse(%q) = %+v, round trip through %q gives %+v", spec, p, p.String(), back)
		}
	})
}
