package htm

// Contention management: the speculate-vs-wait-vs-fallback decision a
// core makes after an abort. The fixed manager reproduces the classic
// retry loop (bounded retries with randomized exponential backoff, then
// the fallback path). The adaptive manager makes the decision online,
// per core and per hot line, from observed abort/commit statistics —
// the "transactional conflict problem" framed as online scheduling.
//
// Determinism: the adaptive manager keeps machine-global mutable state
// (per-core windows, the line heat table) that is updated from both
// engine events (commits, aborts, probes) and thread-side retry
// decisions; the engine's strict one-at-a-time event order and the
// coroutine switch between engine and threads (exactly one of them runs
// at any instant) make every update land in the same order on every
// run. Its jitter draws come from a dedicated PRNG stream so enabling
// it never reshuffles the workload or fault streams.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"chats/internal/mem"
	"chats/internal/sim"
)

// CMKind selects the contention manager.
type CMKind uint8

const (
	// CMFixed is the classic manager: always wait (randomized
	// exponential backoff) after an abort, fall back after the
	// policy's retry budget. The zero value, so existing configs are
	// unchanged.
	CMFixed CMKind = iota
	// CMAdaptive decides speculate/wait/fallback online per core from
	// a sliding abort/commit window, and optionally NACKs probes on
	// lines whose recent abort heat crosses a threshold.
	CMAdaptive
)

func (k CMKind) String() string {
	switch k {
	case CMFixed:
		return "fixed"
	case CMAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("cmkind(%d)", uint8(k))
	}
}

// CMAction is the manager's verdict after an abort.
type CMAction uint8

const (
	// CMWait retries after a backoff delay.
	CMWait CMAction = iota
	// CMSpeculate retries immediately.
	CMSpeculate
	// CMFallback abandons speculation and takes the fallback path now.
	CMFallback
)

func (a CMAction) String() string {
	switch a {
	case CMWait:
		return "wait"
	case CMSpeculate:
		return "spec"
	case CMFallback:
		return "fallback"
	default:
		return fmt.Sprintf("cmaction(%d)", uint8(a))
	}
}

// CMConfig configures the contention manager. The zero value is the
// fixed manager with its historical behavior; defaults below apply
// only to the adaptive manager and are filled in at use, so a
// zero-valued field always means "default", never "zero".
type CMConfig struct {
	Kind CMKind

	// Window is the per-core sliding window of recent attempt
	// outcomes (commits and aborts) the abort rate is computed over.
	// Default 16, max 64.
	Window int
	// SpecFrac is the windowed abort fraction at or below which the
	// manager retries immediately instead of waiting. Default 0.25.
	// Set to 1 to always speculate (useful only for mis-tuning tests).
	SpecFrac float64
	// WaitBase is the base wait delay in cycles; the actual delay is
	// WaitBase << min(consecutiveAborts, 5), capped at WaitCap, plus
	// jitter in [0, WaitBase]. Default 64.
	WaitBase uint64
	// WaitCap caps the adaptive wait delay. Default 1 << 16.
	WaitCap uint64
	// FallbackAfter is the consecutive-abort count at which the
	// manager gives up speculating and takes the fallback path.
	// Default 8.
	FallbackAfter int
	// HotLine, when > 0, NACKs transactional conflict probes for
	// lines whose decayed abort count reaches the threshold, forcing
	// requesters to back off instead of killing the current owner.
	// 0 disables the per-line override.
	HotLine int
}

// Adaptive-manager defaults, applied at use so the zero Config means
// "default" for every knob.
const (
	cmDefaultWindow        = 16
	cmMaxWindow            = 64
	cmDefaultSpecFrac      = 0.25
	cmDefaultWaitBase      = 64
	cmDefaultWaitCap       = 1 << 16
	cmDefaultFallbackAfter = 8

	// cmHeatDecayEvery halves every line's heat after this many
	// conflict aborts machine-wide, so stale hot spots cool off
	// deterministically.
	cmHeatDecayEvery = 1024
)

func (c CMConfig) window() int {
	if c.Window == 0 {
		return cmDefaultWindow
	}
	return c.Window
}

func (c CMConfig) specFrac() float64 {
	if c.SpecFrac == 0 {
		return cmDefaultSpecFrac
	}
	return c.SpecFrac
}

func (c CMConfig) waitBase() uint64 {
	if c.WaitBase == 0 {
		return cmDefaultWaitBase
	}
	return c.WaitBase
}

func (c CMConfig) waitCap() uint64 {
	if c.WaitCap == 0 {
		return cmDefaultWaitCap
	}
	return c.WaitCap
}

func (c CMConfig) fallbackAfter() int {
	if c.FallbackAfter == 0 {
		return cmDefaultFallbackAfter
	}
	return c.FallbackAfter
}

// Validate checks the configuration.
func (c CMConfig) Validate() error {
	switch c.Kind {
	case CMFixed, CMAdaptive:
	default:
		return fmt.Errorf("cm: unknown kind %d", c.Kind)
	}
	if c.Window < 0 || c.Window > cmMaxWindow {
		return fmt.Errorf("cm: window %d out of range [0, %d]", c.Window, cmMaxWindow)
	}
	if !(c.SpecFrac >= 0 && c.SpecFrac <= 1) { // also rejects NaN
		return fmt.Errorf("cm: spec fraction %v out of range [0, 1]", c.SpecFrac)
	}
	if c.FallbackAfter < 0 {
		return fmt.Errorf("cm: fallbackafter %d must be >= 0", c.FallbackAfter)
	}
	if c.HotLine < 0 {
		return fmt.Errorf("cm: hotline %d must be >= 0", c.HotLine)
	}
	if c.WaitCap != 0 && c.WaitCap < c.WaitBase {
		return fmt.Errorf("cm: waitcap %d below waitbase %d", c.WaitCap, c.WaitBase)
	}
	return nil
}

// ParseCM parses a contention-manager spec string:
//
//	fixed
//	adaptive
//	adaptive:window=16,spec=0.25,wait=64,cap=65536,fallbackafter=8,hotline=0
//
// Omitted keys keep their defaults. The grammar mirrors the fault-plan
// spec strings: name, then optional comma-separated key=value pairs
// after a colon.
func ParseCM(spec string) (CMConfig, error) {
	var c CMConfig
	name, opts, _ := strings.Cut(strings.TrimSpace(spec), ":")
	switch name {
	case "fixed", "":
		c.Kind = CMFixed
		if opts != "" {
			return c, fmt.Errorf("cm: fixed takes no options, got %q", opts)
		}
		return c, nil
	case "adaptive":
		c.Kind = CMAdaptive
	default:
		return c, fmt.Errorf("cm: unknown kind %q (valid: fixed, adaptive)", name)
	}
	if opts == "" {
		return c, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("cm: option %q is not key=value", kv)
		}
		var err error
		switch key {
		case "window":
			c.Window, err = strconv.Atoi(val)
		case "spec":
			c.SpecFrac, err = strconv.ParseFloat(val, 64)
		case "wait":
			c.WaitBase, err = strconv.ParseUint(val, 10, 64)
		case "cap":
			c.WaitCap, err = strconv.ParseUint(val, 10, 64)
		case "fallbackafter":
			c.FallbackAfter, err = strconv.Atoi(val)
		case "hotline":
			c.HotLine, err = strconv.Atoi(val)
		default:
			return c, fmt.Errorf("cm: unknown option %q (valid: window, spec, wait, cap, fallbackafter, hotline)", key)
		}
		if err != nil {
			return c, fmt.Errorf("cm: option %s: %v", key, err)
		}
	}
	return c, c.Validate()
}

// String renders the canonical spec for the configuration; parsing it
// back yields an equal CMConfig. Defaulted knobs are omitted.
func (c CMConfig) String() string {
	if c.Kind == CMFixed {
		return "fixed"
	}
	var opts []string
	if c.Window != 0 {
		opts = append(opts, fmt.Sprintf("window=%d", c.Window))
	}
	if c.SpecFrac != 0 {
		opts = append(opts, fmt.Sprintf("spec=%v", c.SpecFrac))
	}
	if c.WaitBase != 0 {
		opts = append(opts, fmt.Sprintf("wait=%d", c.WaitBase))
	}
	if c.WaitCap != 0 {
		opts = append(opts, fmt.Sprintf("cap=%d", c.WaitCap))
	}
	if c.FallbackAfter != 0 {
		opts = append(opts, fmt.Sprintf("fallbackafter=%d", c.FallbackAfter))
	}
	if c.HotLine != 0 {
		opts = append(opts, fmt.Sprintf("hotline=%d", c.HotLine))
	}
	if len(opts) == 0 {
		return "adaptive"
	}
	return "adaptive:" + strings.Join(opts, ",")
}

// cmCore is one core's sliding outcome window plus its consecutive
// abort streak.
type cmCore struct {
	outcomes uint64 // ring of outcome bits, 1 = abort
	fill     int    // outcomes recorded so far, saturates at window
	next     int    // ring write position
	consec   int    // consecutive aborts since the last commit
}

// AdaptiveCM is the online contention manager. All methods must run
// single-threaded: engine-side hooks run inside events, thread-side
// decisions run while the engine is suspended in that thread's
// coroutine switch, so the two never overlap.
type AdaptiveCM struct {
	cfg    CMConfig
	rng    *sim.Rand
	cores  []cmCore
	heat   map[mem.Addr]int
	events int // conflict aborts since the last heat decay
}

// NewAdaptiveCM builds an adaptive manager for a machine with the
// given core count. rng must be a dedicated stream (never shared with
// workload or fault draws).
func NewAdaptiveCM(cfg CMConfig, cores int, rng *sim.Rand) *AdaptiveCM {
	return &AdaptiveCM{
		cfg:   cfg,
		rng:   rng,
		cores: make([]cmCore, cores),
		heat:  make(map[mem.Addr]int),
	}
}

func (cm *AdaptiveCM) note(core int, abort bool) {
	c := &cm.cores[core]
	w := cm.cfg.window()
	bit := uint64(0)
	if abort {
		bit = 1
		c.consec++
	} else {
		c.consec = 0
	}
	c.outcomes = c.outcomes&^(1<<uint(c.next)) | bit<<uint(c.next)
	c.next = (c.next + 1) % w
	if c.fill < w {
		c.fill++
	}
}

// NoteCommit records a committed transaction on core.
func (cm *AdaptiveCM) NoteCommit(core int) { cm.note(core, false) }

// NoteAbort records an aborted transaction on core.
func (cm *AdaptiveCM) NoteAbort(core int) { cm.note(core, true) }

// NoteLineAbort records a conflict abort attributed to line, heating
// it. Heat decays by halving machine-wide every cmHeatDecayEvery
// events so stale hot spots cool off.
func (cm *AdaptiveCM) NoteLineAbort(line mem.Addr) {
	if cm.cfg.HotLine == 0 {
		return
	}
	cm.heat[line]++
	cm.events++
	if cm.events >= cmHeatDecayEvery {
		cm.events = 0
		cm.decay()
	}
}

// decay halves every line's heat, dropping cooled lines. Iteration
// order over the map does not matter: halving is order-independent,
// and deletions only remove zero entries.
func (cm *AdaptiveCM) decay() {
	for line, h := range cm.heat {
		h /= 2
		if h == 0 {
			delete(cm.heat, line)
		} else {
			cm.heat[line] = h
		}
	}
}

// OverrideNack reports whether a transactional conflict probe for line
// should be NACKed instead of consulting the policy, because the line
// is currently hot.
func (cm *AdaptiveCM) OverrideNack(line mem.Addr) bool {
	if cm.cfg.HotLine == 0 {
		return false
	}
	return cm.heat[line] >= cm.cfg.HotLine
}

// abortFrac returns the windowed abort fraction for core; 0 while the
// window is empty.
func (cm *AdaptiveCM) abortFrac(core int) float64 {
	c := &cm.cores[core]
	if c.fill == 0 {
		return 0
	}
	aborts := 0
	for i := 0; i < c.fill; i++ {
		if c.outcomes&(1<<uint(i)) != 0 {
			aborts++
		}
	}
	return float64(aborts) / float64(c.fill)
}

// Decide returns the retry verdict for core after an abort.
func (cm *AdaptiveCM) Decide(core int) CMAction {
	c := &cm.cores[core]
	if c.consec >= cm.cfg.fallbackAfter() {
		return CMFallback
	}
	if cm.abortFrac(core) <= cm.cfg.specFrac() {
		return CMSpeculate
	}
	return CMWait
}

// WaitDelay returns the randomized wait delay for core: exponential in
// the consecutive abort streak, capped, with jitter from the manager's
// dedicated stream. Exactly one PRNG draw per call.
func (cm *AdaptiveCM) WaitDelay(core int) uint64 {
	shift := cm.cores[core].consec
	if shift > 5 {
		shift = 5
	}
	base := cm.cfg.waitBase()
	d := base << uint(shift)
	if cap := cm.cfg.waitCap(); d > cap {
		d = cap
	}
	return d + cm.rng.Uint64n(base+1)
}

// HotLines returns the currently-hot lines in address order, for
// diagnostics.
func (cm *AdaptiveCM) HotLines() []mem.Addr {
	var lines []mem.Addr
	for line := range cm.heat {
		if cm.heat[line] >= cm.cfg.HotLine {
			lines = append(lines, line)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// BankHeat folds the per-line abort heat onto an address-interleaved
// directory of the given bank count (the same line-granular hash the
// sharded directory uses): heat[b] sums the recent abort heat of bank
// b's lines, hot[b] counts its currently-hot lines. A skewed profile
// means the contention storm sits on few banks.
func (cm *AdaptiveCM) BankHeat(banks int) (heat []int, hot []int) {
	heat = make([]int, banks)
	hot = make([]int, banks)
	for line, h := range cm.heat {
		b := mem.LineShard(line, banks)
		heat[b] += h
		if h >= cm.cfg.HotLine {
			hot[b]++
		}
	}
	return heat, hot
}
