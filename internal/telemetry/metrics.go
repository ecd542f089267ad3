package telemetry

import (
	"fmt"
	"io"
	"sort"

	"chats/internal/stats"
)

// Counter is a monotonically increasing event count.
type Counter struct{ N uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.N++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.N += n }

// Gauge is a last-written value (high-water marks, final depths).
type Gauge struct{ V float64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.V = v }

// Registry is a small create-on-demand metrics registry. All lookups
// return the same instance for a name, so instrumentation sites can call
// Counter("x").Inc() without holding references. Rendering is sorted by
// name so output is deterministic.
type Registry struct {
	window   uint64
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*stats.Histogram
	series   map[string]*stats.Series
}

// NewRegistry builds a registry whose time series use the given cycle
// window (0 picks the 10 000-cycle default).
func NewRegistry(window uint64) *Registry {
	if window == 0 {
		window = 10_000
	}
	return &Registry{
		window:   window,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*stats.Histogram),
		series:   make(map[string]*stats.Series),
	}
}

// Window returns the configured cycle-window width.
func (r *Registry) Window() uint64 { return r.window }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []uint64) *stats.Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram(name, bounds)
		r.hists[name] = h
	}
	return h
}

// Series returns the named cycle-windowed series, creating it on first
// use.
func (r *Registry) Series(name string) *stats.Series {
	s, ok := r.series[name]
	if !ok {
		s = stats.NewSeries(name, r.window)
		r.series[name] = s
	}
	return s
}

// AllHistograms returns every registered histogram sorted by name, for
// exporters that persist the full distribution set (runstore).
func (r *Registry) AllHistograms() []*stats.Histogram {
	out := make([]*stats.Histogram, 0, len(r.hists))
	for _, k := range sortedKeys(r.hists) {
		out = append(out, r.hists[k])
	}
	return out
}

// AllSeries returns every registered cycle-windowed series sorted by
// name.
func (r *Registry) AllSeries() []*stats.Series {
	out := make([]*stats.Series, 0, len(r.series))
	for _, k := range sortedKeys(r.series) {
		out = append(out, r.series[k])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Fprint renders counters and gauges as a name/value table, then every
// histogram and series.
func (r *Registry) Fprint(w io.Writer) {
	if len(r.counters)+len(r.gauges) > 0 {
		fmt.Fprintln(w, "== telemetry counters ==")
		for _, k := range sortedKeys(r.counters) {
			fmt.Fprintf(w, "%-32s %12d\n", k, r.counters[k].N)
		}
		for _, k := range sortedKeys(r.gauges) {
			fmt.Fprintf(w, "%-32s %12g\n", k, r.gauges[k].V)
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(r.hists) {
		r.hists[k].Fprint(w)
	}
	for _, k := range sortedKeys(r.series) {
		r.series[k].Fprint(w)
	}
}
