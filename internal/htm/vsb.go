package htm

import "chats/internal/mem"

// VSBEntry holds the unmodified copy of one speculatively received line,
// kept for value-based validation (Fig. 2: valid bit, block address,
// data block).
type VSBEntry struct {
	Valid bool
	Line  mem.Addr
	Data  mem.Line
}

// VSB is the Validation State Buffer (Section IV-B): a small buffer with
// an allocation pointer and a round-robin validation pointer, holding the
// original copies of speculatively received blocks until each has been
// validated with real coherence permissions.
type VSB struct {
	entries  []VSBEntry
	validate int // next entry the periodic validation process will try
	count    int

	// Observer, when non-nil, is invoked with the new occupancy whenever
	// the number of valid entries changes — the telemetry layer samples
	// VSB pressure through it. The nil path is a single pointer check.
	Observer func(occupancy int)
}

// NewVSB builds a VSB with the given number of entries (Table II: 4).
func NewVSB(size int) *VSB {
	if size <= 0 {
		panic("htm: VSB size must be positive")
	}
	return &VSB{entries: make([]VSBEntry, size)}
}

// Len returns the number of valid entries.
func (v *VSB) Len() int { return v.count }

// Empty reports whether all speculative data has been validated.
func (v *VSB) Empty() bool { return v.count == 0 }

// Full reports whether another speculative line can be accepted.
func (v *VSB) Full() bool { return v.count == len(v.entries) }

// Add stores the original copy of a speculatively received line. It
// reports false if the buffer is full. Adding a line already present
// refreshes its copy (a re-forwarding after the first was dropped).
func (v *VSB) Add(line mem.Addr, data mem.Line) bool {
	line = line.Line()
	for i := range v.entries {
		if v.entries[i].Valid && v.entries[i].Line == line {
			v.entries[i].Data = data
			return true
		}
	}
	for i := range v.entries {
		if !v.entries[i].Valid {
			v.entries[i] = VSBEntry{Valid: true, Line: line, Data: data}
			v.count++
			if v.Observer != nil {
				v.Observer(v.count)
			}
			return true
		}
	}
	return false
}

// Lookup returns the stored copy for line.
func (v *VSB) Lookup(line mem.Addr) (mem.Line, bool) {
	line = line.Line()
	for i := range v.entries {
		if v.entries[i].Valid && v.entries[i].Line == line {
			return v.entries[i].Data, true
		}
	}
	return mem.Line{}, false
}

// Remove discards the entry for line after a successful validation.
func (v *VSB) Remove(line mem.Addr) bool {
	line = line.Line()
	for i := range v.entries {
		if v.entries[i].Valid && v.entries[i].Line == line {
			v.entries[i] = VSBEntry{}
			v.count--
			if v.Observer != nil {
				v.Observer(v.count)
			}
			return true
		}
	}
	return false
}

// NextToValidate returns the entry the validation pointer designates and
// advances the pointer (round robin over valid entries). ok is false when
// no entry is valid; if Len is nonzero then, the count is corrupt, which
// the caller reports with its cycle and core.
func (v *VSB) NextToValidate() (VSBEntry, bool) {
	if v.count == 0 {
		return VSBEntry{}, false
	}
	n := len(v.entries)
	for i := 0; i < n; i++ {
		idx := (v.validate + i) % n
		if v.entries[idx].Valid {
			v.validate = (idx + 1) % n
			return v.entries[idx], true
		}
	}
	return VSBEntry{}, false
}

// Clear discards everything (transaction abort or commit).
func (v *VSB) Clear() {
	for i := range v.entries {
		v.entries[i] = VSBEntry{}
	}
	changed := v.count != 0
	v.count = 0
	v.validate = 0
	if changed && v.Observer != nil {
		v.Observer(0)
	}
}

// Lines returns the addresses of the valid entries in slot order
// (diagnostics and invariant checking; allocates only when non-empty).
func (v *VSB) Lines() []mem.Addr {
	if v.count == 0 {
		return nil
	}
	out := make([]mem.Addr, 0, v.count)
	for i := range v.entries {
		if v.entries[i].Valid {
			out = append(out, v.entries[i].Line)
		}
	}
	return out
}
