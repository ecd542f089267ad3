package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"chats/internal/coherence"
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/mem"
)

// The Collector must keep satisfying the machine's tracer interfaces
// structurally — this package deliberately never imports internal/machine
// outside its tests, so these assertions are the only compile-time tie.
var (
	_ machine.Tracer      = (*Collector)(nil)
	_ machine.XTracer     = (*Collector)(nil)
	_ machine.FaultTracer = (*Collector)(nil)
)

// feedScenario drives a small synthetic event sequence through the
// Collector: core 0 forwards line 0x80 to core 1, which consumes,
// validates and commits; core 2 loses a conflict and aborts.
func feedScenario(c *Collector) {
	line := mem.Addr(0x80)
	c.TxBegin(100, 0, 1, false)
	c.TxBegin(110, 1, 2, false)
	c.TxBegin(120, 2, 1, false)

	c.Conflict(150, 0, 1, line, coherence.FwdGetX, htm.DecideSpec)
	c.Forward(150, 0, 1, line, coherence.PiCInit)
	c.Consume(160, 1, line, coherence.PiCInit)
	c.VSBOccupancy(160, 1, 1)

	c.Conflict(170, 0, 2, line, coherence.FwdGetX, htm.DecideAbort)
	c.TxAbort(175, 2, htm.CauseConflict)

	c.NackRetry(180, 2, line)

	c.TxCommit(200, 0, 0)
	c.Validate(210, 1, line, true)
	c.VSBOccupancy(210, 1, 0)
	c.TxCommit(220, 1, 1)
	c.Fallback(230, 2)
	c.FaultInjected(240, 2, "spurious")
	c.FaultInjected(250, -1, "jitter")
}

func TestCollectorAggregates(t *testing.T) {
	c := New(4, Options{Window: 100})
	feedScenario(c)

	if got := c.Reg.Counter("tx/commits").N; got != 2 {
		t.Errorf("commits = %d, want 2", got)
	}
	if got := c.Reg.Counter("tx/aborts/conflict").N; got != 1 {
		t.Errorf("conflict aborts = %d, want 1", got)
	}
	if got := c.Reg.Counter("conflict/spec").N; got != 1 {
		t.Errorf("spec conflicts = %d, want 1", got)
	}
	if got := c.Reg.Counter("tx/fallbacks").N; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := c.Reg.Counter("fault/spurious").N + c.Reg.Counter("fault/jitter").N; got != 2 {
		t.Errorf("fault counters = %d, want 2", got)
	}

	// tx latencies: core 0 ran 100..200, core 1 ran 110..220.
	if c.txCycles.N != 2 || c.txCycles.Sum != 100+110 {
		t.Errorf("txCycles n=%d sum=%d, want 2/210", c.txCycles.N, c.txCycles.Sum)
	}
	// Both VSB samples (occupancy 1 then 0) observed.
	if c.vsbOcc.N != 2 {
		t.Errorf("vsb samples = %d, want 2", c.vsbOcc.N)
	}

	hot := c.HotLines(10)
	if len(hot) != 1 || hot[0].Line != 0x80 {
		t.Fatalf("hot lines = %+v, want single 0x80", hot)
	}
	h := hot[0]
	if h.Conflicts != 2 || h.Aborts != 1 || h.Forwards != 1 || h.Consumes != 1 ||
		h.ValidationsOK != 1 || h.NackRetries != 1 {
		t.Errorf("line counters = %+v", h.LineCounters)
	}

	ch := c.Chain()
	if ch.Edges != 1 || ch.MaxDepth != 1 || ch.CycleAborts != 0 {
		t.Errorf("chain report = %+v", ch)
	}

	// Windowed series: commits at cycles 200 and 220 share window 2.
	if s := c.Reg.Series("commits"); s.Bins[2] != 2 || s.Total() != 2 {
		t.Errorf("commit series bins = %v", s.Bins)
	}
}

func TestHotLinesOrderAndTies(t *testing.T) {
	c := New(2, Options{})
	// 0x100 engages more machinery than 0x40; 0x1c0 ties with 0x40 and
	// must sort after it (lower address first on ties).
	for i := 0; i < 3; i++ {
		c.Conflict(uint64(i), 0, 1, 0x100, coherence.FwdGetS, htm.DecideAbort)
	}
	c.Conflict(10, 0, 1, 0x40, coherence.FwdGetS, htm.DecideNack)
	c.Conflict(11, 0, 1, 0x1c0, coherence.FwdGetS, htm.DecideNack)
	hot := c.HotLines(0) // 0 = no cap
	if len(hot) != 3 || hot[0].Line != 0x100 || hot[1].Line != 0x40 || hot[2].Line != 0x1c0 {
		t.Errorf("order = %v", hot)
	}
	if top := c.HotLines(1); len(top) != 1 || top[0].Line != 0x100 {
		t.Errorf("top-1 = %v", top)
	}
}

func TestWriteJSONL(t *testing.T) {
	c := New(4, Options{})
	feedScenario(c)
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(c.Events)+1 {
		t.Fatalf("%d lines for %d events + header", len(lines), len(c.Events))
	}
	// The first line is the schema header that makes stored traces
	// self-describing.
	var hdr struct {
		Schema  string `json:"schema"`
		Events  int    `json:"events"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header not JSON: %v\n%s", err, lines[0])
	}
	if hdr.Schema != TraceSchema || hdr.Events != len(c.Events) || hdr.Dropped != 0 {
		t.Errorf("header = %+v, want schema %q with %d events", hdr, TraceSchema, len(c.Events))
	}
	// Every event line must be a standalone JSON object with the shared
	// fields.
	for i, ln := range lines[1:] {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		for _, k := range []string{"cycle", "kind", "core"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing %q: %s", i, k, ln)
			}
		}
	}
	// Spot-check the exact rendering of a forward (field order is part of
	// the format contract — the golden test depends on it).
	want := `{"cycle":150,"kind":"forward","core":0,"peer":1,"line":"0x80","pic":15}`
	if lines[5] != want {
		t.Errorf("forward line = %s, want %s", lines[5], want)
	}
}

func TestJSONLDroppedMeta(t *testing.T) {
	c := New(4, Options{MaxEvents: 3})
	feedScenario(c)
	if len(c.Events) != 3 || c.Dropped == 0 {
		t.Fatalf("events=%d dropped=%d", len(c.Events), c.Dropped)
	}
	// Aggregation continues past the cap.
	if c.Reg.Counter("tx/commits").N != 2 {
		t.Error("metrics stopped at the event cap")
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `{"kind":"meta","dropped":`) {
		t.Errorf("missing dropped meta line:\n%s", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := New(3, Options{})
	feedScenario(c)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Tid  int            `json:"tid"`
			ID   uint64         `json:"id"`
			BP   string         `json:"bp"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid trace_event JSON: %v", err)
	}
	byPh := map[string]int{}
	var slices, meta int
	for _, e := range out.TraceEvents {
		byPh[e.Ph]++
		switch e.Ph {
		case "M":
			meta++
			if e.Name != "thread_name" {
				t.Errorf("metadata name = %q", e.Name)
			}
		case "X":
			slices++
			if e.Dur == 0 {
				t.Errorf("slice %q has zero duration", e.Name)
			}
		}
	}
	if meta != 3 {
		t.Errorf("thread_name metadata = %d, want one per core", meta)
	}
	// 2 commits + 1 abort = 3 duration slices.
	if slices != 3 {
		t.Errorf("slices = %d, want 3", slices)
	}
	// The forward/consume pair must become a matched flow: one "s" start
	// and one "f" end sharing an id.
	if byPh["s"] != 1 || byPh["f"] != 1 {
		t.Fatalf("flow events = s:%d f:%d, want 1/1", byPh["s"], byPh["f"])
	}
	var sID, fID uint64
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "s":
			sID = e.ID
		case "f":
			fID = e.ID
			if e.BP != "e" {
				t.Errorf("flow end bp = %q, want e", e.BP)
			}
		}
	}
	if sID == 0 || sID != fID {
		t.Errorf("flow ids start=%d end=%d, want matching non-zero", sID, fID)
	}
	// Instants: conflicts, nack retry, fallback, two injected faults.
	if byPh["i"] != 2+1+1+2 {
		t.Errorf("instants = %d, want 6", byPh["i"])
	}
}

func TestRegistryReuseAndRender(t *testing.T) {
	r := NewRegistry(0)
	if r.Window() != 10_000 {
		t.Errorf("default window = %d", r.Window())
	}
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Error("Counter returned distinct instances for one name")
	}
	a.Add(3)
	r.Gauge("g").Set(2.5)
	r.Histogram("h", []uint64{1, 2}).Observe(1)
	r.Series("s").Add(5, 1)
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"telemetry counters", "x", "g", "== h ==", "== s ("} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMultiTracerFansOutToCollector(t *testing.T) {
	a := New(2, Options{})
	b := New(2, Options{})
	var sink bytes.Buffer
	mt := machine.MultiTracer{machine.WriterTracer{W: &sink}, a, b}
	var x machine.XTracer = mt // MultiTracer always offers the extended view
	x.TxBegin(10, 0, 1, false)
	x.Conflict(20, 0, 1, 0x80, coherence.FwdGetX, htm.DecideSpec)
	x.TxCommit(30, 0, 0)
	for name, c := range map[string]*Collector{"a": a, "b": b} {
		if c.Reg.Counter("tx/commits").N != 1 || c.Reg.Counter("conflict/spec").N != 1 {
			t.Errorf("collector %s missed fanned-out events", name)
		}
	}
	// The plain WriterTracer only sees the base Tracer events.
	if got := sink.String(); !strings.Contains(got, "commit") || strings.Contains(got, "conflict") {
		t.Errorf("writer saw: %s", got)
	}
}
