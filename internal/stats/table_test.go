package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Fatal("empty means should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean = %g", g)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

// Property: geomean <= mean (AM-GM) for positive inputs.
func TestAMGM(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000)/100 + 0.01
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0, 0) != 1 {
		t.Fatal("0/0 should be 1")
	}
	if !math.IsInf(Ratio(5, 0), 1) {
		t.Fatal("x/0 should be +Inf")
	}
	if Ratio(6, 3) != 2 {
		t.Fatal("6/3")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("demo", []string{"a", "b"}, []string{"x", "y"})
	tb.Set("a", "x", 1)
	tb.Set("a", "y", 2)
	tb.Set("b", "x", 3)
	tb.Set("b", "y", 5)
	if tb.Get("b", "y") != 5 {
		t.Fatal("get")
	}
	tb.AddMeanRows([]string{"a", "b"})
	if got := tb.Get("amean", "x"); got != 2 {
		t.Fatalf("amean x = %g", got)
	}
	if got := tb.Get("gmean", "y"); math.Abs(got-math.Sqrt(10)) > 1e-12 {
		t.Fatalf("gmean y = %g", got)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "amean", "gmean", "x", "y", "3.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// A column with a zero (a run without aborts) gets a NaN gmean, not a
// GeoMean panic; the other columns keep theirs.
func TestMeanRowsNaNGeoMeanOnNonPositive(t *testing.T) {
	tb := NewTable("demo", []string{"a", "b"}, []string{"x", "y"})
	tb.Set("a", "x", 0)
	tb.Set("b", "x", 2)
	tb.Set("a", "y", 1)
	tb.Set("b", "y", 4)
	tb.AddMeanRows([]string{"a", "b"})
	if got := tb.Get("gmean", "x"); !math.IsNaN(got) {
		t.Fatalf("gmean x = %g, want NaN", got)
	}
	if got := tb.Get("amean", "x"); got != 1 {
		t.Fatalf("amean x = %g, want 1", got)
	}
	if got := tb.Get("gmean", "y"); got != 2 {
		t.Fatalf("gmean y = %g, want 2", got)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !strings.Contains(buf.String(), "NaN") {
		t.Fatalf("output lacks the NaN gmean:\n%s", buf.String())
	}
}

func TestTableUnknownLabelPanics(t *testing.T) {
	tb := NewTable("demo", []string{"a"}, []string{"x"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Set("nope", "x", 1)
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("demo", []string{"a", "b"}, []string{"x", "y"})
	tb.Set("a", "x", 1.5)
	tb.Set("b", "y", 2)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "row,x,y\na,1.5,0\nb,0,2\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
