package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrLineMath(t *testing.T) {
	cases := []struct {
		a    Addr
		line Addr
		idx  int
	}{
		{0, 0, 0},
		{8, 0, 1},
		{56, 0, 7},
		{64, 64, 0},
		{72, 64, 1},
		{127, 64, 7},
		{0x1000, 0x1000, 0},
	}
	for _, c := range cases {
		if c.a.Line() != c.line {
			t.Errorf("%v.Line() = %v, want %v", c.a, c.a.Line(), c.line)
		}
		if c.a.WordIndex() != c.idx {
			t.Errorf("%v.WordIndex() = %d, want %d", c.a, c.a.WordIndex(), c.idx)
		}
	}
}

func TestAddrPlus(t *testing.T) {
	a := Addr(0x100)
	if a.Plus(3) != 0x118 {
		t.Fatalf("Plus(3) = %v", a.Plus(3))
	}
}

// Property: for any address, Line() is line-aligned, contains the
// address, and word index is within the line.
func TestAddrProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ 7) // word aligned
		l := a.Line()
		return uint64(l)%LineSize == 0 &&
			l <= a && a < l+LineSize &&
			a.WordIndex() >= 0 && a.WordIndex() < WordsPerLine &&
			l.Plus(a.WordIndex()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReadWriteWord(t *testing.T) {
	m := NewMemory()
	if m.ReadWord(0x40) != 0 {
		t.Fatal("fresh memory not zero")
	}
	m.WriteWord(0x40, 99)
	m.WriteWord(0x48, 100)
	if m.ReadWord(0x40) != 99 || m.ReadWord(0x48) != 100 {
		t.Fatal("readback mismatch")
	}
	// Same line.
	l := m.ReadLine(0x44) // any addr in the line
	if l[0] != 99 || l[1] != 100 {
		t.Fatalf("line = %v", l)
	}
}

func TestMemoryLineRoundTrip(t *testing.T) {
	m := NewMemory()
	var l Line
	for i := range l {
		l[i] = uint64(i * 7)
	}
	m.WriteLine(0x80, l)
	got := m.ReadLine(0x80)
	if got != l {
		t.Fatalf("got %v want %v", got, l)
	}
	// WriteLine with non-aligned addr targets the containing line.
	m.WriteLine(0x88, Line{1})
	if m.ReadWord(0x80) != 1 {
		t.Fatal("WriteLine did not normalize to line base")
	}
}

// Property: word writes are independent; writing one word never changes
// another word.
func TestMemoryWordIsolation(t *testing.T) {
	f := func(addrs []uint16, vals []uint64) bool {
		m := NewMemory()
		model := make(map[Addr]uint64)
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := Addr(addrs[i]) &^ 7
			m.WriteWord(a, vals[i])
			model[a] = vals[i]
		}
		for a, v := range model {
			if m.ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorAlignment(t *testing.T) {
	al := NewAllocator(0)
	a := al.Words(3)
	if a == 0 {
		t.Fatal("allocator handed out nil address")
	}
	if uint64(a)%WordSize != 0 {
		t.Fatal("not word aligned")
	}
	b := al.Words(1)
	if b != a.Plus(3) {
		t.Fatalf("bump allocation not contiguous: %v then %v", a, b)
	}
	c := al.Lines(2)
	if uint64(c)%LineSize != 0 {
		t.Fatal("Lines not line aligned")
	}
	d := al.LineAligned(5)
	if uint64(d)%LineSize != 0 {
		t.Fatal("LineAligned not line aligned")
	}
	if d < c+2*LineSize {
		t.Fatal("allocations overlap")
	}
}

func TestAllocatorNoOverlap(t *testing.T) {
	al := NewAllocator(0x1000)
	type span struct{ lo, hi Addr }
	var spans []span
	r := []int{1, 8, 3, 16, 2}
	for i, n := range r {
		var a Addr
		switch i % 3 {
		case 0:
			a = al.Words(n)
			spans = append(spans, span{a, a + Addr(n*WordSize)})
		case 1:
			a = al.Lines(n)
			spans = append(spans, span{a, a + Addr(n*LineSize)})
		case 2:
			a = al.LineAligned(n)
			spans = append(spans, span{a, a + Addr(n*WordSize)})
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("overlap between %v and %v", spans[i-1], spans[i])
		}
	}
}

func TestAllocatorPanics(t *testing.T) {
	al := NewAllocator(0)
	for _, fn := range []func(){
		func() { al.Words(0) },
		func() { al.Lines(-1) },
		func() { al.LineAligned(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTouched(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0, 1)
	m.WriteWord(8, 2)        // same line
	m.WriteWord(64, 3)       // new line
	m.WriteLine(128, Line{}) // new line even if zero
	if got := m.Touched(); got != 3 {
		t.Fatalf("Touched = %d, want 3", got)
	}
}

// farAddrs are line addresses beyond the dense page table: the first
// line above its bound and the last line of the address space.
var farAddrs = []Addr{densePages << pageShift, 0xFFFF_FFFF_FFFF_FFC0}

func TestFarPageRoundTrip(t *testing.T) {
	m := NewMemory()
	for i, la := range farAddrs {
		w := la.Plus(3)
		m.WriteWord(w, uint64(100+i))
		if got := m.ReadWord(w); got != uint64(100+i) {
			t.Errorf("ReadWord(%v) = %d, want %d", w, got, 100+i)
		}
		next := la + LineSize // wraps to 0 for the last line
		l := Line{1, 2, 3, 4, 5, 6, 7, uint64(i)}
		m.WriteLine(la.Plus(7), l)
		if got := m.ReadLine(la); got != l {
			t.Errorf("ReadLine(%v) = %v, want %v", la, got, l)
		}
		if got := m.ReadLine(next); got != (Line{}) {
			t.Errorf("ReadLine(%v) = %v after writing only %v", next, got, la)
		}
	}
	if got := m.Touched(); got != len(farAddrs) {
		t.Fatalf("Touched = %d, want %d", got, len(farAddrs))
	}
	if len(m.dense) != 0 {
		t.Fatalf("far writes grew the dense table to %d pages", len(m.dense))
	}
}

// TestForEachLineVisitsWrittenLines: ForEachLine yields each written
// line exactly once, near or far, a line written with zeros included,
// and no line that was only read or merely shares a page; Touched
// agrees with it.
func TestForEachLineVisitsWrittenLines(t *testing.T) {
	m := NewMemory()
	want := map[Addr]Line{
		0:             {7},
		0x40:          {},        // written with zeros
		0x1000 - 0x40: {0, 9},    // last line of page 0
		0x12340:       {1, 2, 3}, // a page of its own
		farAddrs[0]:   {4},
		farAddrs[1]:   {},
	}
	for a, l := range want {
		m.WriteLine(a, l)
	}
	m.WriteWord(0x8, 7) // same line as 0, written twice
	want[0] = Line{7, 7}
	m.ReadWord(0x80)
	m.ReadLine(0x9000)
	got := map[Addr]Line{}
	m.ForEachLine(func(a Addr, l Line) {
		if _, dup := got[a]; dup {
			t.Errorf("line %v visited twice", a)
		}
		got[a] = l
	})
	if len(got) != len(want) {
		t.Errorf("ForEachLine visited %d lines, want %d: %v", len(got), len(want), got)
	}
	for a, l := range want {
		if g, ok := got[a]; !ok || g != l {
			t.Errorf("line %v = %v (visited %v), want %v", a, g, ok, l)
		}
	}
	if m.Touched() != len(want) {
		t.Errorf("Touched = %d, ForEachLine visited %d", m.Touched(), len(want))
	}
}

// TestReadUnwrittenAllocatesNothing: reading a line that was never
// written, near or far, in a written page or not, allocates nothing.
func TestReadUnwrittenAllocatesNothing(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x40, 1)
	m.WriteWord(farAddrs[0], 1)
	for _, a := range []Addr{0x80, 0x5000, farAddrs[0] + LineSize, farAddrs[1]} {
		if n := testing.AllocsPerRun(100, func() { m.ReadWord(a); m.ReadLine(a) }); n != 0 {
			t.Errorf("reading unwritten %v allocated %v times", a, n)
		}
	}
}
