package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the embedded run database: append-only JSONL segments on
// disk plus a full in-memory index. All methods are safe for concurrent
// use; appends are serialized, queries return copies of the index
// entries (the nested slices/maps are shared and must be treated as
// read-only by callers).
type Store struct {
	dir string

	mu     sync.Mutex
	seg    *os.File // the segment appends go to (nil once closed)
	lock   *os.File // the held LOCK file of an Open store (nil once closed)
	nextID uint64
	recs   []Record // insertion == ID order
	closed bool

	// segs and newestSize record what the replay read: the segment
	// names and the byte length of the newest one. Changed compares
	// them with the directory.
	segs       []string
	newestSize int64
}

// Open opens (creating if needed) the store directory and replays every
// segment into the in-memory index. A torn final record — the only
// corruption a crash mid-append can leave behind — is truncated away;
// corruption anywhere else is reported as an error. Appends go to the
// newest segment, or to seg-000001.jsonl in an empty directory.
//
// One writer at a time: Open holds an exclusive lock on the directory's
// LOCK file until Close, taken before the replay (which may truncate),
// and fails while another Store holds it, so two writers never hand out
// the same IDs.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if err := flock(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("runstore: %s is open for writing by another store: %w", dir, err)
	}
	s, err := load(dir, true)
	if err != nil {
		lock.Close()
		return nil, err
	}
	s.lock = lock
	path := filepath.Join(dir, "seg-000001.jsonl")
	if len(s.segs) > 0 {
		path = s.segs[len(s.segs)-1]
	}
	if s.seg, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		lock.Close()
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return s, nil
}

// Read replays an existing store directory without writing to it: a
// torn tail of the newest segment (a writer may be mid-append) is
// dropped from the index but left on disk. The returned Store is
// closed, so Append fails while every query works.
func Read(dir string) (*Store, error) {
	s, err := load(dir, false)
	if err != nil {
		return nil, err
	}
	s.closed = true
	return s, nil
}

// load replays every segment of dir into a new Store. With truncate
// set, a torn tail of the newest segment is also cut from the file.
func load(dir string, truncate bool) (*Store, error) {
	s := &Store{dir: dir}
	names, err := segments(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		// Only the newest segment can legally carry a torn tail: older
		// ones were complete before the next was started.
		newest := i == len(names)-1
		size, good, err := s.replay(name, newest)
		if err != nil {
			return nil, err
		}
		if newest {
			s.newestSize = size
		}
		if truncate && good < size {
			if err := os.Truncate(name, good); err != nil {
				return nil, fmt.Errorf("runstore: truncating torn tail of %s: %w", name, err)
			}
			s.newestSize = good
		}
	}
	s.segs = names
	for i := range s.recs {
		if s.recs[i].ID >= s.nextID {
			s.nextID = s.recs[i].ID + 1
		}
	}
	return s, nil
}

// segments lists the segment files of dir in name (= creation) order.
// Stores written by older versions can hold several.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if ok, _ := filepath.Match("seg-*.jsonl", e.Name()); ok && !e.IsDir() {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	return names, nil
}

// replay decodes one segment into the index and returns the segment's
// size and the offset just past its last fully-decoded record. In the
// newest segment a torn tail (no trailing newline, or a final line that
// is not valid JSON) is left out of the index; anywhere else it is an
// error.
func (s *Store) replay(path string, newest bool) (size, good int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("runstore: %w", err)
	}
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn: no newline terminator
		}
		line := rest[:nl]
		var r Record
		if len(bytes.TrimSpace(line)) > 0 {
			if err := json.Unmarshal(line, &r); err != nil {
				if newest && nl+1 == len(rest) {
					break // torn final line (partial flush that happened to end in \n)
				}
				return 0, 0, fmt.Errorf("runstore: %s: corrupt record at offset %d: %w",
					path, good, err)
			}
			s.recs = append(s.recs, r)
		}
		good += int64(nl + 1)
		rest = rest[nl+1:]
	}
	if !newest && good < int64(len(data)) {
		return 0, 0, fmt.Errorf("runstore: %s: torn record in sealed segment at offset %d", path, good)
	}
	return int64(len(data)), good, nil
}

// Changed reports whether the directory's segment list or the size of
// its newest segment differs from what Read replayed, so a reader knows
// when another process has appended. An unreadable directory counts as
// changed.
func (s *Store) Changed() bool {
	names, err := segments(s.dir)
	if err != nil || len(names) != len(s.segs) {
		return true
	}
	for i := range names {
		if names[i] != s.segs[i] {
			return true
		}
	}
	if len(names) == 0 {
		return false
	}
	st, err := os.Stat(names[len(names)-1])
	return err != nil || st.Size() != s.newestSize
}

// Append assigns the record an ID, persists it to the store's segment
// and indexes it. The write is flushed to the OS before Append returns,
// so a crash can tear at most the record being appended.
func (s *Store) Append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("runstore: store is closed")
	}
	r.ID = s.nextID
	line, err := json.Marshal(r)
	if err != nil {
		return 0, fmt.Errorf("runstore: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.seg.Write(line); err != nil {
		return 0, fmt.Errorf("runstore: %w", err)
	}
	s.nextID++
	s.recs = append(s.recs, r)
	return r.ID, nil
}

// Close closes the segment and releases the directory lock. Further
// Appends fail; queries keep working from the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	s.lock.Close() // closing the descriptor drops the lock
	s.lock = nil
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Query filters Runs. Zero-value fields match everything.
type Query struct {
	Commit   string
	System   string
	Workload string
	Source   string
	// Limit keeps only the newest N matches (0 = all).
	Limit int
}

func (q Query) matches(r *Record) bool {
	return (q.Commit == "" || q.Commit == r.Commit) &&
		(q.System == "" || q.System == r.System) &&
		(q.Workload == "" || q.Workload == r.Workload) &&
		(q.Source == "" || q.Source == r.Source)
}

// Runs returns the matching records in ID (= insertion) order.
func (s *Store) Runs(q Query) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for i := range s.recs {
		if q.matches(&s.recs[i]) {
			out = append(out, s.recs[i])
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Get returns the record with the given ID.
func (s *Store) Get(id uint64) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.recs {
		if s.recs[i].ID == id {
			return s.recs[i], true
		}
	}
	return Record{}, false
}

// Commits returns the distinct commits in first-recorded order — the
// x-axis of every trend view.
func (s *Store) Commits() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return commitsLocked(s.recs)
}

func commitsLocked(recs []Record) []string {
	var out []string
	seen := make(map[string]bool)
	for i := range recs {
		if c := recs[i].Commit; !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TrendPoint aggregates every record of one commit within a
// (system, workload) group: arithmetic means of the cost fields, so
// multi-seed cells fold into one point.
type TrendPoint struct {
	Commit       string  `json:"commit"`
	TimestampUTC string  `json:"timestamp_utc,omitempty"`
	Runs         int     `json:"runs"`
	SimCycles    float64 `json:"simcycles"`
	WallclockNS  float64 `json:"wallclock_ns"`
	Allocs       float64 `json:"allocs"`
	AbortRate    float64 `json:"abort_rate"`
}

// Trend is the cross-commit series of one (system, workload) group.
type Trend struct {
	System   string       `json:"system"`
	Workload string       `json:"workload"`
	Points   []TrendPoint `json:"points"`
}

// Trends groups the store by (system, workload) and, within each group,
// orders one aggregated point per commit in first-recorded order.
// Groups come back sorted by system then workload so output is
// deterministic.
func (s *Store) Trends(q Query) []Trend {
	s.mu.Lock()
	defer s.mu.Unlock()
	commitOrder := commitsLocked(s.recs)
	type group struct {
		byCommit map[string][]*Record
	}
	groups := make(map[[2]string]*group)
	for i := range s.recs {
		r := &s.recs[i]
		if !q.matches(r) {
			continue
		}
		gk := [2]string{r.System, r.Workload}
		g, ok := groups[gk]
		if !ok {
			g = &group{byCommit: make(map[string][]*Record)}
			groups[gk] = g
		}
		g.byCommit[r.Commit] = append(g.byCommit[r.Commit], r)
	}
	keys := make([][2]string, 0, len(groups))
	for gk := range groups {
		keys = append(keys, gk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]Trend, 0, len(keys))
	for _, gk := range keys {
		g := groups[gk]
		tr := Trend{System: gk[0], Workload: gk[1]}
		for _, c := range commitOrder {
			recs := g.byCommit[c]
			if len(recs) == 0 {
				continue
			}
			p := TrendPoint{Commit: c, Runs: len(recs), TimestampUTC: recs[0].TimestampUTC}
			var aborts, execs uint64
			for _, r := range recs {
				p.SimCycles += float64(r.SimCycles)
				p.WallclockNS += float64(r.WallclockNS)
				p.Allocs += float64(r.Allocs)
				aborts += r.counter("aborts")
				execs += r.counter("aborts") + r.counter("commits")
			}
			n := float64(len(recs))
			p.SimCycles /= n
			p.WallclockNS /= n
			p.Allocs /= n
			if execs > 0 {
				p.AbortRate = float64(aborts) / float64(execs)
			}
			tr.Points = append(tr.Points, p)
		}
		out = append(out, tr)
	}
	return out
}

// Recorder returns a per-run callback that stamps meta and source onto
// each record and appends it — the shape experiments.Params.Recorder
// and the CLI `-store` wiring expect. Append failures are reported on
// stderr rather than aborting the producing run: losing one database
// row must not kill a half-finished sweep.
func (s *Store) Recorder(meta Meta, source string) func(Record) {
	return func(r Record) {
		r.Meta = meta
		r.Source = source
		if _, err := s.Append(r); err != nil {
			fmt.Fprintf(os.Stderr, "runstore: dropping record for %s/%s: %v\n", r.System, r.Workload, err)
		}
	}
}
