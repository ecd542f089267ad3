package sim

// FreeList recycles pooled payloads of type T, so a payload that a flow
// takes per hop and gives back when the hop is done allocates only
// until the pool covers the flow's high-water mark. The zero value is
// an empty list.
//
// The list only stores pointers: each pool binds a fresh payload's
// embedded event when Get finds the list empty, and resets a payload's
// fields when it Puts it back, so that a pooled object holds no stale
// reference for the GC to keep alive.
type FreeList[T any] struct{ items []*T }

// Get returns the most recently Put payload, or nil if the list is
// empty.
func (l *FreeList[T]) Get() (x *T) {
	if n := len(l.items) - 1; n >= 0 {
		x = l.items[n]
		l.items[n] = nil
		l.items = l.items[:n]
	}
	return x
}

// Put returns x to the list; the next Get hands it out again.
func (l *FreeList[T]) Put(x *T) { l.items = append(l.items, x) }
