package difftest_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/difftest"
	"chats/internal/randprog"
)

// loadCorpus reads every corpus/*.txt entry, skipping '#' comment and
// blank lines; each remaining line must be a valid rp1 spec.
func loadCorpus(t testing.TB) map[string]*randprog.Program {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("corpus", "*.txt"))
	if err != nil {
		t.Fatalf("glob corpus: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("corpus is empty: expected at least one corpus/*.txt entry")
	}
	progs := make(map[string]*randprog.Program)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		specs := 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			p, err := randprog.Parse(line)
			if err != nil {
				t.Fatalf("%s: bad spec: %v", path, err)
			}
			specs++
			key := name
			if specs > 1 {
				key = name + "#" + string(rune('0'+specs))
			}
			progs[key] = p
		}
		if specs == 0 {
			t.Fatalf("%s: no spec line found", path)
		}
	}
	return progs
}

// TestCorpusReplay replays every committed corpus program on all five
// paper systems (plus LEVC) with the full oracle stack: invariant
// checker, accounting cross-checks, and the commit-order memory replay.
func TestCorpusReplay(t *testing.T) {
	systems := append(append([]core.Kind{}, difftest.Systems()...), core.KindLEVC)
	for name, p := range loadCorpus(t) {
		for _, kind := range systems {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				if err := difftest.CheckSystem(p, kind, difftest.Options{}); err != nil {
					t.Fatalf("corpus entry failed: %v", err)
				}
			})
		}
	}
}
