package machine_test

import (
	"runtime"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/testutil"
	"chats/internal/workloads"
)

// TestScale256Footprint bounds the bytes one 256-core run allocates.
// Each L1 set grows one way at a time and each directory line reuses
// its request queue, so CHATS on kmeans-h (small) allocates about 3.7
// MB. Allocating every L1 set whole on its first insert took it to 10
// MB; that plus request queues that drop their dequeued slots, to 24
// MB. The limit sits between, so either one coming back fails it.
func TestScale256Footprint(t *testing.T) {
	const limit = 6_000_000
	w, err := workloads.New("kmeans-h", workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 256
	policy := testutil.Policy(t, core.KindCHATS)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := testutil.Machine(t, cfg, policy)
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Fatalf("256-core kmeans-h allocated %.1f MB, limit %.1f MB", float64(n)/1e6, float64(limit)/1e6)
	} else {
		t.Logf("256-core kmeans-h allocated %.1f MB", float64(n)/1e6)
	}
}
