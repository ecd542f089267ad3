package sim

import "testing"

// TestFreeListGetPut: Get on an empty list returns nil, a Put pointer
// comes back from the next Get, last in first out, and the list is
// empty again once every Put has been taken.
func TestFreeListGetPut(t *testing.T) {
	var l FreeList[int]
	if x := l.Get(); x != nil {
		t.Fatalf("Get on an empty list = %p, want nil", x)
	}
	a, b := new(int), new(int)
	l.Put(a)
	if x := l.Get(); x != a {
		t.Fatalf("Get = %p, want the Put pointer %p", x, a)
	}
	l.Put(a)
	l.Put(b)
	if x, y := l.Get(), l.Get(); x != b || y != a {
		t.Fatalf("Get, Get = %p, %p; want %p, %p", x, y, b, a)
	}
	if x := l.Get(); x != nil {
		t.Fatalf("Get on a drained list = %p, want nil", x)
	}
}
