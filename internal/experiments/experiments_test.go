package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/workloads"
)

func tinySuite() *Suite {
	p := Params{Size: workloads.Tiny, Machine: machine.DefaultConfig()}
	p.Machine.CycleLimit = 200_000_000
	return NewSuite(p)
}

func TestRunMemoizes(t *testing.T) {
	s := tinySuite()
	a, err := s.Run(core.KindBaseline, nil, "ssca2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(core.KindBaseline, nil, "ssca2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized result differs")
	}
	if s.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", s.Runs)
	}
}

// Grid returns its cells in system-major order; a repeated name repeats
// its row but runs the cell once.
func TestGridRepeatsRowsRunsOnce(t *testing.T) {
	s := tinySuite()
	got, err := s.Grid([]core.Kind{core.KindBaseline, core.KindCHATS, core.KindBaseline}, nil, []string{"cadd", "cadd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || s.Runs != 2 {
		t.Fatalf("Grid returned %d rows from %d runs, want 6 from 2", len(got), s.Runs)
	}
	for i, want := range []int{0, 0, 2, 2, 0, 0} {
		if got[i].System != got[want].System || got[i].Cycles != got[want].Cycles {
			t.Fatalf("row %d = %s %d cycles, want row %d's %s %d", i, got[i].System, got[i].Cycles, want, got[want].System, got[want].Cycles)
		}
	}
	if got[0].System == got[2].System {
		t.Fatalf("rows 0 and 2 both ran %s", got[0].System)
	}
}

func TestFig1And4ShareRuns(t *testing.T) {
	s := tinySuite()
	if _, err := s.Fig4(); err != nil {
		t.Fatal(err)
	}
	runsAfter4 := s.Runs
	if _, err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	if s.Runs != runsAfter4 {
		t.Fatalf("Fig1 re-ran cached cells: %d -> %d", runsAfter4, s.Runs)
	}
	// 11 benchmarks x 5 systems.
	if runsAfter4 != 55 {
		t.Fatalf("Fig4 ran %d simulations, want 55", runsAfter4)
	}
}

func TestFig4Shape(t *testing.T) {
	s := tinySuite()
	tab, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline column must be exactly 1 everywhere (self-normalized).
	for _, b := range workloads.AllNames() {
		if got := tab.Get(b, "baseline"); got != 1 {
			t.Fatalf("baseline[%s] = %g, want 1", b, got)
		}
	}
	if tab.Get("gmean", "chats") <= 0 {
		t.Fatal("gmean missing")
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Fatal("table title missing")
	}
}

func TestFig5Tables(t *testing.T) {
	s := tinySuite()
	tabs, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 6 { // summary + 5 systems
		t.Fatalf("Fig5 returned %d tables", len(tabs))
	}
}

func TestFig6Tables(t *testing.T) {
	s := tinySuite()
	tabs, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("Fig6 returned %d tables", len(tabs))
	}
	// Baseline never forwards.
	for _, b := range workloads.AllNames() {
		if tabs[0].Get(b, "forwarder-committed") != 0 {
			t.Fatal("baseline forwarded")
		}
	}
}

func TestFig7(t *testing.T) {
	s := tinySuite()
	tab, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range workloads.AllNames() {
		if tab.Get(b, "baseline") != 1 {
			t.Fatal("baseline flits not self-normalized")
		}
	}
}

func TestFig8RunsAllModes(t *testing.T) {
	s := tinySuite()
	tab, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cols) != 6 {
		t.Fatalf("Fig8 cols = %v", tab.Cols)
	}
	for _, b := range workloads.AllNames() {
		if tab.Get(b, "chats-R/W") != 1 {
			t.Fatal("reference column not 1")
		}
	}
}

func TestFig9SingleSystem(t *testing.T) {
	s := tinySuite()
	tabs, err := s.Fig9([]core.Kind{core.KindCHATS})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Cols) != len(Fig9Retries) {
		t.Fatalf("Fig9 shape wrong")
	}
}

// Fig. 10 runs CHATS on every (VSB size, validation interval) square,
// normalized to vsb=1/val=50. The pinned squares differ from the
// reference, so the traits reach the machine.
func TestFig10(t *testing.T) {
	tabs, err := tinySuite().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("Fig10 returned %d tables, want 2", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != len(Fig10VSBSizes) || len(tab.Cols) != len(Fig10Intervals) {
			t.Fatalf("%s: %d×%d squares", tab.Title, len(tab.Rows), len(tab.Cols))
		}
		if v := tab.Get("vsb=1", "val=50"); v != 1 {
			t.Fatalf("%s: reference square = %v, want 1", tab.Title, v)
		}
	}
	for _, c := range []struct {
		tab      int
		row, col string
		want     string
	}{
		{0, "vsb=1", "val=400", "1.060"},
		{0, "vsb=4", "val=100", "0.989"},
		{1, "vsb=2", "val=50", "1.078"},
		{1, "vsb=32", "val=400", "1.178"},
	} {
		if got := fmt.Sprintf("%.3f", tabs[c.tab].Get(c.row, c.col)); got != c.want {
			t.Errorf("%s %s/%s = %s, want %s", tabs[c.tab].Title, c.row, c.col, got, c.want)
		}
	}
}

func TestFig11(t *testing.T) {
	s := tinySuite()
	tab, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cols) != 4 {
		t.Fatalf("Fig11 cols = %v", tab.Cols)
	}
}

func TestPrintTables(t *testing.T) {
	var buf bytes.Buffer
	PrintTableI(&buf, machine.DefaultConfig())
	if err := PrintTableII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "CHATS", "LEVC", "MESI", "crossbar"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMultiSeedAveraging(t *testing.T) {
	p := Params{Size: workloads.Tiny, Machine: machine.DefaultConfig(), Seeds: 3}
	p.Machine.CycleLimit = 200_000_000
	s := NewSuite(p)
	st, err := s.Run(core.KindCHATS, nil, "ssca2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 3 {
		t.Fatalf("Runs = %d, want 3", s.Runs)
	}
	if st.Cycles == 0 || st.Commits == 0 {
		t.Fatalf("averaged stats empty: %+v", st)
	}
	// Memoized: a second call must not re-run.
	if _, err := s.Run(core.KindCHATS, nil, "ssca2"); err != nil || s.Runs != 3 {
		t.Fatalf("memoization broken: runs=%d err=%v", s.Runs, err)
	}
}
