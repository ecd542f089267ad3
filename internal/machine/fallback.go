package machine

// Fallback paths: what a thread does when it gives up on hardware
// speculation. The historical behavior — and the zero-value default —
// is the single global test-test-and-set lock, which serializes every
// fallback section and (via the eager lock subscription) kills all
// running hardware transactions. Two alternatives trade progress
// guarantees against concurrency, per Brown & Ravi's hybrid-TM cost
// analysis:
//
//   - stm: a word-granular software transactional path. The body runs
//     against a buffered write set with per-word versioned locks, so
//     non-conflicting fallback transactions commit concurrently; only
//     the short validate+writeback window holds the global lock (the
//     hardware-safety net — hardware commits do not bump versions, so
//     the read set is re-validated by value while every hardware
//     transaction is provably dead).
//   - elide: the global lock path with a per-core retry budget. Each
//     time a thread is about to take the lock it may instead spend
//     budget on more speculative attempts, earning budget back on
//     commits — lock acquisitions smooth into extra retries.
//
// All paths are thread-side code over the ordinary thread ops; lock
// words (global and STM version locks alike) are taken by one engine-time
// acquire op (spinAcquire). Randomized delays draw from the per-thread
// PRNG stream, so every path stays bit-deterministic.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"chats/internal/mem"
	"chats/internal/sim"
)

// FallbackKind selects the fallback path.
type FallbackKind uint8

const (
	// FallbackLock is the single global lock (the zero-value default).
	FallbackLock FallbackKind = iota
	// FallbackSTM is the software path with word-granular versioned
	// locks.
	FallbackSTM
	// FallbackElide is the global lock with per-core retry budgets.
	FallbackElide
)

func (k FallbackKind) String() string {
	switch k {
	case FallbackLock:
		return "lock"
	case FallbackSTM:
		return "stm"
	case FallbackElide:
		return "elide"
	default:
		return fmt.Sprintf("fallbackkind(%d)", uint8(k))
	}
}

// FallbackConfig configures the fallback path. The zero value is the
// historical global lock; defaults below are filled in at use.
type FallbackConfig struct {
	Kind FallbackKind

	// Locks is the STM version-lock table size in words (each on its
	// own cache line; write words hash onto them). Default 64.
	Locks int
	// Budget is the elide path's per-core retry budget: how many
	// would-be lock acquisitions a core may convert into one more
	// speculative attempt before the lock becomes mandatory.
	// Default 4.
	Budget int
	// Refill is how much elide budget a commit earns back (saturating
	// at Budget). Default 1.
	Refill int
}

const (
	fbDefaultLocks  = 64
	fbMaxLocks      = 1 << 16
	fbDefaultBudget = 4
	fbDefaultRefill = 1
)

func (c FallbackConfig) stmLocks() int {
	if c.Locks == 0 {
		return fbDefaultLocks
	}
	return c.Locks
}

func (c FallbackConfig) elideBudget() int {
	if c.Budget == 0 {
		return fbDefaultBudget
	}
	return c.Budget
}

func (c FallbackConfig) elideRefill() int {
	if c.Refill == 0 {
		return fbDefaultRefill
	}
	return c.Refill
}

// Validate checks the configuration.
func (c FallbackConfig) Validate() error {
	switch c.Kind {
	case FallbackLock, FallbackSTM, FallbackElide:
	default:
		return fmt.Errorf("fallback: unknown kind %d", c.Kind)
	}
	if c.Locks < 0 || c.Locks > fbMaxLocks {
		return fmt.Errorf("fallback: locks %d out of range [0, %d]", c.Locks, fbMaxLocks)
	}
	if c.Budget < 0 {
		return fmt.Errorf("fallback: budget %d must be >= 0", c.Budget)
	}
	if c.Refill < 0 {
		return fmt.Errorf("fallback: refill %d must be >= 0", c.Refill)
	}
	return nil
}

// ParseFallback parses a fallback-path spec string:
//
//	lock
//	stm              stm:locks=64
//	elide            elide:budget=4,refill=1
//
// Omitted keys keep their defaults; the grammar mirrors the fault-plan
// spec strings.
func ParseFallback(spec string) (FallbackConfig, error) {
	var c FallbackConfig
	name, opts, _ := strings.Cut(strings.TrimSpace(spec), ":")
	switch name {
	case "lock", "":
		c.Kind = FallbackLock
		if opts != "" {
			return c, fmt.Errorf("fallback: lock takes no options, got %q", opts)
		}
		return c, nil
	case "stm":
		c.Kind = FallbackSTM
	case "elide":
		c.Kind = FallbackElide
	default:
		return c, fmt.Errorf("fallback: unknown kind %q (valid: lock, stm, elide)", name)
	}
	if opts == "" {
		return c, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("fallback: option %q is not key=value", kv)
		}
		var err error
		switch {
		case key == "locks" && c.Kind == FallbackSTM:
			c.Locks, err = strconv.Atoi(val)
		case key == "budget" && c.Kind == FallbackElide:
			c.Budget, err = strconv.Atoi(val)
		case key == "refill" && c.Kind == FallbackElide:
			c.Refill, err = strconv.Atoi(val)
		default:
			return c, fmt.Errorf("fallback: unknown option %q for %s (stm: locks; elide: budget, refill)", key, c.Kind)
		}
		if err != nil {
			return c, fmt.Errorf("fallback: option %s: %v", key, err)
		}
	}
	return c, c.Validate()
}

// String renders the canonical spec for the configuration; parsing it
// back yields an equal FallbackConfig. Defaulted knobs are omitted.
func (c FallbackConfig) String() string {
	var opts []string
	switch c.Kind {
	case FallbackSTM:
		if c.Locks != 0 {
			opts = append(opts, fmt.Sprintf("locks=%d", c.Locks))
		}
	case FallbackElide:
		if c.Budget != 0 {
			opts = append(opts, fmt.Sprintf("budget=%d", c.Budget))
		}
		if c.Refill != 0 {
			opts = append(opts, fmt.Sprintf("refill=%d", c.Refill))
		}
	}
	if len(opts) == 0 {
		return c.Kind.String()
	}
	return c.Kind.String() + ":" + strings.Join(opts, ",")
}

// BackoffKind selects the randomized post-abort backoff formula.
type BackoffKind uint8

const (
	// BackoffExp is the historical randomized exponential backoff
	// (the zero-value default): BackoffBase << min(aborts, 5), plus
	// jitter in [0, BackoffBase].
	BackoffExp BackoffKind = iota
	// BackoffLinear grows the delay linearly in the abort count,
	// capped: min(BackoffBase*aborts, cap) plus the same jitter.
	BackoffLinear
	// BackoffJitter is full jitter: uniform in [0, min(cap,
	// BackoffBase << min(aborts, 5))].
	BackoffJitter
)

func (k BackoffKind) String() string {
	switch k {
	case BackoffExp:
		return "exp"
	case BackoffLinear:
		return "linear"
	case BackoffJitter:
		return "jitter"
	default:
		return fmt.Sprintf("backoffkind(%d)", uint8(k))
	}
}

// BackoffConfig selects the backoff variant. The zero value is the
// historical exponential formula, bit-identical to before the knob
// existed. Every variant draws exactly once from the thread PRNG per
// backoff, so switching variants never desynchronizes the workload
// random streams.
type BackoffConfig struct {
	Kind BackoffKind
	// Cap bounds one backoff delay in cycles; 0 means the built-in
	// overflow clamp (1 << 32).
	Cap uint64
}

// Validate checks the configuration.
func (c BackoffConfig) Validate() error {
	switch c.Kind {
	case BackoffExp, BackoffLinear, BackoffJitter:
	default:
		return fmt.Errorf("backoff: unknown kind %d", c.Kind)
	}
	return nil
}

// ParseBackoff parses a backoff spec string: "exp", "linear",
// "jitter", each optionally with ":cap=N".
func ParseBackoff(spec string) (BackoffConfig, error) {
	var c BackoffConfig
	name, opts, _ := strings.Cut(strings.TrimSpace(spec), ":")
	switch name {
	case "exp", "":
		c.Kind = BackoffExp
	case "linear":
		c.Kind = BackoffLinear
	case "jitter":
		c.Kind = BackoffJitter
	default:
		return c, fmt.Errorf("backoff: unknown kind %q (valid: exp, linear, jitter)", name)
	}
	if opts == "" {
		return c, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("backoff: option %q is not key=value", kv)
		}
		var err error
		switch key {
		case "cap":
			c.Cap, err = strconv.ParseUint(val, 10, 64)
		default:
			return c, fmt.Errorf("backoff: unknown option %q (valid: cap)", key)
		}
		if err != nil {
			return c, fmt.Errorf("backoff: option %s: %v", key, err)
		}
	}
	return c, c.Validate()
}

// String renders the canonical spec; parsing it back yields an equal
// BackoffConfig.
func (c BackoffConfig) String() string {
	if c.Cap == 0 {
		return c.Kind.String()
	}
	return fmt.Sprintf("%s:cap=%d", c.Kind, c.Cap)
}

// ---------- STM fallback path ----------

const (
	// stmOpsBudget bounds the simulated operations of one STM body
	// execution. An inconsistent snapshot can send a data-dependent
	// body into a loop; the budget converts that into a retry with a
	// fresh snapshot (and doubles, so large legitimate bodies always
	// fit eventually).
	stmOpsBudget = 4096
	// stmMaxRetries bounds STM re-executions before the thread gives
	// up on optimism and runs the body under the global lock — the
	// same progress guarantee as the lock path.
	stmMaxRetries = 8
)

// stmTx is a thread's reusable STM descriptor: the read set (address,
// snapshot value, version observed at first read), the buffered write
// set in first-write order, and the sorted version locks the commit
// protocol acquires. Maps are only used for membership; every ordered
// walk runs over the slices, so iteration order never leaks in.
type stmTx struct {
	readAddrs   []mem.Addr
	readVals    []uint64
	readVers    []uint64
	readVerAddr []mem.Addr
	readIdx     map[mem.Addr]int

	writeAddrs []mem.Addr
	writeVals  map[mem.Addr]uint64

	lockAddrs []mem.Addr
	lockOrig  []uint64

	ops    int
	budget int
}

func newSTMTx() *stmTx {
	return &stmTx{
		readIdx:   make(map[mem.Addr]int),
		writeVals: make(map[mem.Addr]uint64),
	}
}

func (s *stmTx) reset() {
	s.readAddrs = s.readAddrs[:0]
	s.readVals = s.readVals[:0]
	s.readVers = s.readVers[:0]
	s.readVerAddr = s.readVerAddr[:0]
	clear(s.readIdx)
	s.writeAddrs = s.writeAddrs[:0]
	clear(s.writeVals)
	s.lockAddrs = s.lockAddrs[:0]
	s.lockOrig = s.lockOrig[:0]
	s.ops = 0
}

// bump charges one instrumented operation against the body budget.
func (s *stmTx) bump() {
	s.ops++
	if s.ops > s.budget {
		panic(txAbort{})
	}
}

// holdsLock reports whether va is one of the version locks this commit
// already holds (lockAddrs is sorted).
func (s *stmTx) holdsLock(va mem.Addr) bool {
	i := sort.Search(len(s.lockAddrs), func(i int) bool { return s.lockAddrs[i] >= va })
	return i < len(s.lockAddrs) && s.lockAddrs[i] == va
}

// stmHandle is the Tx the body sees on the STM path: loads snapshot
// word versions and values, stores buffer into the write set. All
// simulated accesses are plain (non-transactional) ops.
type stmHandle struct {
	t *tctx
	s *stmTx
}

func (h stmHandle) Rand() *sim.Rand { return h.t.rng }
func (h stmHandle) Fallback() bool  { return true }

func (h stmHandle) Load(a mem.Addr) uint64 {
	s := h.s
	s.bump()
	if v, ok := s.writeVals[a]; ok {
		// Read-own-write: served from the buffer, one cycle.
		h.t.post(opReq{kind: opWork, val: 1})
		return v
	}
	if _, ok := s.readIdx[a]; ok {
		// Re-read: pay for the access, return the recorded snapshot so
		// the body always sees a stable value per location.
		h.t.do(opReq{kind: opLoad, addr: a})
		return s.readVals[s.readIdx[a]]
	}
	va := h.t.r.m.stmVerAddr(a)
	ver := h.t.do(opReq{kind: opLoad, addr: va}).val
	v := h.t.do(opReq{kind: opLoad, addr: a}).val
	s.readIdx[a] = len(s.readAddrs)
	s.readAddrs = append(s.readAddrs, a)
	s.readVals = append(s.readVals, v)
	s.readVers = append(s.readVers, ver)
	s.readVerAddr = append(s.readVerAddr, va)
	return v
}

func (h stmHandle) Add(a mem.Addr, d uint64) { h.Store(a, h.Load(a)+d) }

func (h stmHandle) Store(a mem.Addr, v uint64) {
	s := h.s
	s.bump()
	if _, ok := s.writeVals[a]; !ok {
		s.writeAddrs = append(s.writeAddrs, a)
	}
	s.writeVals[a] = v
	h.t.post(opReq{kind: opWork, val: 1}) // buffered: one cycle, no traffic
}

// Walk runs the chain as a plain Load loop: every load goes through
// the STM read path. Next runs on the thread here, but inNext still
// fails a Next that calls back into Ctx or Tx, as on the other paths.
func (h stmHandle) Walk(first mem.Addr, w mem.Walker) {
	for a, more := first, true; more; {
		v := h.Load(a)
		h.t.inNext = true
		a, more = w.Next(v)
		h.t.inNext = false
	}
}

func (h stmHandle) Work(n uint64) {
	h.t.post(opReq{kind: opWork, val: n})
}

// fallbackSTM runs body on the software path: optimistic execution
// against a buffered write set, then a versioned-lock + value-validated
// commit that holds the global lock only for the writeback window.
func (t *tctx) fallbackSTM(body func(Tx)) {
	if t.stm == nil {
		t.stm = newSTMTx()
	}
	t.stm.budget = stmOpsBudget
	// Start the fallback-occupancy clock: the engine measures from here
	// to the final ExitFallback, so overlapping STM bodies show up as
	// concurrency in FallbackBodyCycles.
	t.post(opReq{kind: opFallbackBodyStart})
	for fails := 0; ; fails++ {
		if fails >= stmMaxRetries {
			// Too much churn to commit optimistically (e.g. a hardware
			// storm rewriting the read set): run under the global lock,
			// which guarantees progress exactly like the lock path.
			t.fallbackLock(body)
			return
		}
		if t.stmAttempt(body) {
			return
		}
		t.node.stats.FallbackSTMRetries++
		t.post(opReq{kind: opWork, val: 16 + t.rng.Uint64n(16)})
	}
}

// runSTMBody executes the body once against a fresh descriptor,
// converting a budget abort back into a retry signal.
func (t *tctx) runSTMBody(body func(Tx)) (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, isAbort := rec.(txAbort); !isAbort {
				panic(rec)
			}
			ok = false
		}
	}()
	body(stmHandle{t: t, s: t.stm})
	return true
}

// stmAttempt is one optimistic execute-validate-commit round. It
// returns false if the body overran its budget or validation failed;
// the caller retries with a fresh snapshot.
func (t *tctx) stmAttempt(body func(Tx)) bool {
	m := t.r.m
	s := t.stm
	s.reset()
	if !t.runSTMBody(body) {
		s.budget *= 2
		return false
	}
	if len(s.writeAddrs) == 0 {
		// Read-only body: still serialize through the global lock so the
		// value validation below is race-free and the Fallback event
		// gives the replay oracle a serialization point.
		return t.stmCommitUnderLock(s)
	}
	// Collect the version locks guarding the write set, sorted and
	// deduplicated: a single global acquisition order makes STM-vs-STM
	// locking deadlock-free, and collisions collapse onto one lock.
	for _, wa := range s.writeAddrs {
		s.lockAddrs = append(s.lockAddrs, m.stmVerAddr(wa))
	}
	sort.Slice(s.lockAddrs, func(i, j int) bool { return s.lockAddrs[i] < s.lockAddrs[j] })
	dst := 0
	for i, la := range s.lockAddrs {
		if i == 0 || la != s.lockAddrs[dst-1] {
			s.lockAddrs[dst] = la
			dst++
		}
	}
	s.lockAddrs = s.lockAddrs[:dst]
	// Acquire each write lock: CAS even version v -> v+1 (odd = held).
	for _, la := range s.lockAddrs {
		s.lockOrig = append(s.lockOrig, t.acquire(la, stmLockSpan))
	}
	// Pre-validate read versions outside the global lock: cheap early
	// failure against concurrent STM writers. Versions alone cannot
	// prove safety (hardware commits do not bump them) — the value
	// check under the lock below is the safety net.
	for i := range s.readAddrs {
		va := s.readVerAddr[i]
		if s.holdsLock(va) {
			continue // own write lock: nobody else can move it now
		}
		if t.do(opReq{kind: opLoad, addr: va}).val != s.readVers[i] {
			t.stmReleaseLocks(false)
			return false
		}
	}
	return t.stmCommitUnderLock(s)
}

// stmCommitUnderLock finishes the commit inside the global lock:
// acquiring it aborts every running hardware transaction (eager lock
// subscription) and blocks new begins, so re-validating the read set
// by value is race-free; then the buffered writes go back in program
// order and the version locks release with a bump.
func (t *tctx) stmCommitUnderLock(s *stmTx) bool {
	la := t.r.m.lockAddr
	t.acquire(la, globalLockSpan)
	for i, ra := range s.readAddrs {
		if t.do(opReq{kind: opLoad, addr: ra}).val != s.readVals[i] {
			t.post(opReq{kind: opStore, addr: la, val: 0})
			t.stmReleaseLocks(false)
			return false
		}
	}
	// Serialization point: the Fallback event is where the difftest
	// replay oracle orders this block (and where lockburst faults
	// stall the holder).
	t.post(opReq{kind: opEnterFallback})
	for _, wa := range s.writeAddrs {
		t.post(opReq{kind: opStore, addr: wa, val: s.writeVals[wa]})
	}
	t.stmReleaseLocks(true)
	t.post(opReq{kind: opExitFallback})
	t.post(opReq{kind: opStore, addr: la, val: 0})
	t.node.stats.FallbackSTMCommits++
	return true
}

// stmReleaseLocks releases the held version locks: bumped past the
// held value after a writeback, restored untouched on a failed commit.
func (t *tctx) stmReleaseLocks(bump bool) {
	s := t.stm
	for i, la := range s.lockAddrs {
		v := s.lockOrig[i]
		if bump {
			v += 2
		}
		t.post(opReq{kind: opStore, addr: la, val: v})
	}
	s.lockAddrs = s.lockAddrs[:0]
	s.lockOrig = s.lockOrig[:0]
}

// ---------- elide fallback path ----------

// elideExtend converts one would-be lock acquisition into another
// speculative attempt if the core has budget left.
func (t *tctx) elideExtend() bool {
	if t.r.m.cfg.Fallback.Kind != FallbackElide || t.elide <= 0 {
		return false
	}
	t.elide--
	t.node.stats.FallbackElideExtends++
	return true
}

// noteCommitBudget refills the elide budget after a hardware commit.
func (t *tctx) noteCommitBudget() {
	fb := &t.r.m.cfg.Fallback
	if fb.Kind != FallbackElide {
		return
	}
	max := fb.elideBudget()
	t.elide += fb.elideRefill()
	if t.elide > max {
		t.elide = max
	}
}

// runFallback dispatches to the configured fallback path.
func (t *tctx) runFallback(body func(Tx)) {
	if t.r.m.cfg.Fallback.Kind == FallbackSTM {
		t.fallbackSTM(body)
		return
	}
	t.fallbackLock(body)
}
