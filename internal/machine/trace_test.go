package machine

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
)

func TestWriterTracerEmitsEvents(t *testing.T) {
	policy, _ := core.New(core.KindCHATS)
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.SetTracer(WriterTracer{W: &buf})
	if _, err := m.Run(&migratoryWL{slots: 4, iters: 20}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"begin attempt=", "commit", "abort cause=", "forward", "consume", "validated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q event; head of trace:\n%.600s", want, out)
		}
	}
}

func TestChainTracerRecordsEdges(t *testing.T) {
	policy, _ := core.New(core.KindCHATS)
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	ct := &ChainTracer{}
	m.SetTracer(ct)
	if _, err := m.Run(&migratoryWL{slots: 4, iters: 20}); err != nil {
		t.Fatal(err)
	}
	if len(ct.Edges) == 0 {
		t.Fatal("no forwarding edges recorded")
	}
	for _, e := range ct.Edges {
		if e.Producer == e.Consumer {
			t.Fatal("self edge recorded")
		}
		if !e.PiC.Valid() && e.PiC != -2 {
			t.Fatalf("edge with invalid PiC: %+v", e)
		}
	}
	if d := ct.MaxChainDepth(); d < 1 {
		t.Fatalf("MaxChainDepth = %d", d)
	}
}

// spinWL reproduces Section III-A's endless-loop hazard: the consumer
// spins on a flag it received speculatively as 0 while the producer has
// already (speculatively) set it to 1 and then overwritten it — wrong
// speculative values must be killed by periodic validation rather than
// spin forever.
type spinWL struct {
	flag mem.Addr
	data mem.Addr
}

func (w *spinWL) Name() string { return "spin" }
func (w *spinWL) Setup(wd *World, threads int) {
	w.flag = wd.Alloc.LineAligned(1)
	w.data = wd.Alloc.LineAligned(1)
}
func (w *spinWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0: // producer: holds flag=1 speculatively, then changes its mind
		ctx.Atomic(func(tx Tx) {
			tx.Store(w.flag, 1)
			tx.Work(2000)
			tx.Store(w.flag, 2) // consumer's forwarded value 1 is now stale
			tx.Work(2000)
		})
	case 1: // consumer: under committed values the flag is never 1 here
		ctx.Work(300)
		ctx.Atomic(func(tx Tx) {
			if tx.Load(w.flag) != 1 {
				return // correct execution: nothing to wait for
			}
			// Only a consumer of the wrong (intermediate) speculative
			// value reaches this loop; periodic validation must kill it.
			for i := 0; tx.Load(w.flag) == 1; i++ {
				tx.Work(25)
				if i > 100_000 {
					panic("spin never broken")
				}
			}
		})
	}
}
func (w *spinWL) Check(wd *World) error { return nil }

func TestPeriodicValidationBreaksEndlessLoop(t *testing.T) {
	stats := runWL(t, core.KindCHATS, &spinWL{}, testCfg())
	if stats.SpecRespsConsumed == 0 {
		t.Skip("no forwarding happened; scenario inconclusive")
	}
	// The consumer's spin can only be broken by an abort (validation
	// mismatch on the stale value) followed by a re-execution that reads
	// the committed value.
	if stats.ByCause[htm.CauseValidation] == 0 && stats.ByCause[htm.CauseCycle] == 0 {
		t.Fatalf("spin was not broken by validation; causes = %v", stats.ByCause)
	}
}

// TestWriterTracerGolden pins the WriterTracer text of a small
// deterministic CHATS run byte for byte, so a change to how events
// reach the tracer (order, arguments, which hooks print) shows up here.
// Regenerate with go test -run TestWriterTracerGolden -update.
func TestWriterTracerGolden(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.SetTracer(WriterTracer{W: &buf})
	if _, err := m.Run(&migratoryWL{slots: 2, iters: 3}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "migratory_chats_writer.txt", buf.Bytes())
}

// runCheck is a RunChecker that counts its hooks and fails EndRun with
// err.
type runCheck struct {
	NopTracer
	begins, ends int
	err          error
}

func (c *runCheck) BeginRun(*Machine)     { c.begins++ }
func (c *runCheck) EndRun(*Machine) error { c.ends++; return c.err }

// TestSetTracerRunsEveryRunChecker: with several RunCheckers attached,
// Run calls every BeginRun and every EndRun once, even after an EndRun
// failed, and reports the first failure.
func TestSetTracerRunsEveryRunChecker(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	a, b := &runCheck{err: first}, &runCheck{err: second}
	policy, _ := core.New(core.KindCHATS)
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTracer(a, nil, b)
	_, err = m.Run(&counterWL{iters: 3})
	if !errors.Is(err, first) || errors.Is(err, second) {
		t.Fatalf("err = %v, want the first checker's error only", err)
	}
	for name, c := range map[string]*runCheck{"a": a, "b": b} {
		if c.begins != 1 || c.ends != 1 {
			t.Errorf("checker %s: %d BeginRun, %d EndRun, want 1 each", name, c.begins, c.ends)
		}
	}
}

// TestSetTracerKeepsWatchdogRing: attaching tracers to an armed machine
// keeps the watchdog's event ring recording, so the dump is the same
// with and without them.
func TestSetTracerKeepsWatchdogRing(t *testing.T) {
	dump := func(ts ...Tracer) string {
		cfg := testCfg()
		cfg.Cores = 2
		cfg.MaxAttempts = 15
		m, err := New(cfg, core.NewBaselineWith(htm.Traits{Retries: 1 << 30}))
		if err != nil {
			t.Fatal(err)
		}
		m.SetTracer(ts...)
		_, err = m.Run(&starveWL{})
		var ll *LivelockError
		if !errors.As(err, &ll) {
			t.Fatalf("err = %v, want *LivelockError", err)
		}
		return ll.Dump
	}
	plain := dump()
	if traced := dump(&ChainTracer{}, WriterTracer{W: io.Discard}); traced != plain {
		t.Fatalf("attaching tracers changed the dump:\n%s\nwant:\n%s", traced, plain)
	}
}
