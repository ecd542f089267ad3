package machine

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the telemetry golden files")

// runCollected is runWL with a telemetry Collector attached.
func runCollected(t *testing.T, kind core.Kind, w Workload, cfg Config, opts telemetry.Options) (RunStats, *telemetry.Collector) {
	t.Helper()
	policy, err := core.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(cfg.Cores, opts)
	m.SetTracer(col)
	stats, err := m.Run(w)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return stats, col
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (rerun with -update if the change is intended)\ngot %d bytes, want %d",
			name, len(got), len(want))
	}
}

// TestTelemetryGoldenTrace pins the full structured export of a small
// deterministic CHATS run: the JSONL event stream and the hot-line
// report must match the checked-in files byte for byte. Any protocol or
// telemetry change that alters the event stream shows up here; update
// the goldens (go test -run Golden -update) and explain why in the
// commit, exactly as with golden_test.go.
func TestTelemetryGoldenTrace(t *testing.T) {
	run := func() ([]byte, []byte) {
		_, col := runCollected(t, core.KindCHATS,
			&migratoryWL{slots: 2, iters: 3}, testCfg(), telemetry.Options{Window: 1000})
		var trace, hot bytes.Buffer
		if err := col.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		col.WriteHotLineReport(&hot, 4)
		return trace.Bytes(), hot.Bytes()
	}
	trace, hot := run()
	checkGolden(t, "migratory_chats_trace.jsonl", trace)
	checkGolden(t, "migratory_chats_hotlines.txt", hot)

	// The export must be deterministic: a fresh machine reproduces it.
	trace2, hot2 := run()
	if !bytes.Equal(trace, trace2) || !bytes.Equal(hot, hot2) {
		t.Fatal("telemetry export not reproducible across identical runs")
	}
}

// TestHotLinesNameContendedAccounts runs the bank microbenchmark and
// checks the profiler's answer is *correct*, not just stable: every
// top-ranked hot line must be one of the account lines the workload
// allocated, and the hottest lines must have seen real conflict traffic.
func TestHotLinesNameContendedAccounts(t *testing.T) {
	w := &bankWL{accounts: 4, iters: 40}
	stats, col := runCollected(t, core.KindCHATS, w, testCfg(), telemetry.Options{})
	if stats.Aborts == 0 && stats.SpecRespsSent == 0 {
		t.Fatal("bank run saw no contention at all; scenario too weak")
	}
	lo := w.base
	hi := w.base + mem.Addr(w.accounts*mem.LineSize)
	top := col.HotLines(w.accounts)
	if len(top) == 0 {
		t.Fatal("profiler tracked no lines")
	}
	for _, h := range top {
		if h.Line < lo || h.Line >= hi {
			t.Errorf("hot line %s outside the account range [%s, %s)",
				h.Line.String(), lo.String(), hi.String())
		}
	}
	if top[0].Conflicts == 0 {
		t.Errorf("hottest line %s has zero conflicts: %+v", top[0].Line.String(), top[0].LineCounters)
	}
}

// TestNilTracerEmitsNoAllocations pins the no-tracer fast path: with no
// tracer attached, every emit helper loops over an empty observer list
// and allocates nothing.
func TestNilTracerEmitsNoAllocations(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if m.obs.tx != nil || m.obs.op != nil || m.obs.fault != nil || m.obs.run != nil {
		t.Fatal("fresh machine has a tracer attached")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.emitBegin(0, 1, false)
		m.emitCommit(0, 0)
		m.emitAbort(0, htm.CauseConflict)
		m.emitForward(0, 1, 0x80, 15)
		m.emitConsume(1, 0x80, 15)
		m.emitValidate(1, 0x80, true)
		m.emitFallback(0)
		m.emitConflict(0, 1, 0x80, 0, htm.DecideSpec)
		m.emitNackRetry(0, 0x80)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer emission allocates %.1f times per event batch, want 0", allocs)
	}
}

// TestNilTracerEmitsNoAllocationsWatchdogArmed is the armed-watchdog
// variant: with no tracer attached but the watchdog's event ring
// recording, every emit helper still allocates nothing.
func TestNilTracerEmitsNoAllocationsWatchdogArmed(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.WatchdogCycles = 100_000
	m, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.emitBegin(0, 1, false)
		m.emitCommit(0, 0)
		m.emitAbort(0, htm.CauseConflict)
		m.emitForward(0, 1, 0x80, 15)
		m.emitConsume(1, 0x80, 15)
		m.emitValidate(1, 0x80, true)
		m.emitFallback(0)
		m.emitConflict(0, 1, 0x80, 0, htm.DecideSpec)
		m.emitNackRetry(0, 0x80)
		m.emitOp(0, OpStore, true, 0x80, 1, 0, true)
		m.countFault(0, "spurious")
	})
	if allocs != 0 {
		t.Fatalf("armed-watchdog emission allocates %.1f times per event batch, want 0", allocs)
	}
	if dump := m.diagnosticDump(); !strings.Contains(dump, "last 64 events:") ||
		!strings.Contains(dump, "core0 fault spurious") {
		t.Fatalf("the event ring did not record the emitted events:\n%s", dump)
	}
}
