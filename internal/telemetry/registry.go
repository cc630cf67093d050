package telemetry

import (
	"sort"

	"element/internal/telemetry/stream"
)

// Registry holds the run's metrics, keyed by component/name. Handles are
// resolved once at instrumentation time, so the per-update cost is a
// nil-check plus a float add — no map lookups, no atomics (the simulation
// is single-threaded per engine).
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

func key(component, name string) string { return component + "/" + name }

func (r *Registry) counter(component, name string) *Counter {
	k := key(component, name)
	c := r.counters[k]
	if c == nil {
		c = &Counter{Component: component, Name: name}
		r.counters[k] = c
	}
	return c
}

func (r *Registry) gauge(component, name string) *Gauge {
	k := key(component, name)
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{Component: component, Name: name}
		r.gauges[k] = g
	}
	return g
}

func (r *Registry) histogram(component, name string) *Histogram {
	k := key(component, name)
	h := r.histograms[k]
	if h == nil {
		h = &Histogram{Component: component, Name: name}
		r.histograms[k] = h
	}
	return h
}

// Counters returns all counters sorted by component/name (nil-safe).
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Component, out[i].Name) < key(out[j].Component, out[j].Name)
	})
	return out
}

// Gauges returns all gauges sorted by component/name (nil-safe).
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Component, out[i].Name) < key(out[j].Component, out[j].Name)
	})
	return out
}

// Histograms returns all histograms sorted by component/name (nil-safe).
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	out := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Component, out[i].Name) < key(out[j].Component, out[j].Name)
	})
	return out
}

// Counter is a monotonically increasing metric.
type Counter struct {
	Component, Name string
	v               float64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d float64) {
	if c != nil && d > 0 {
		c.v += d
	}
}

// Value reports the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value metric.
type Gauge struct {
	Component, Name string
	v               float64
	set             bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		g.set = true
	}
}

// Value reports the last value set and whether Set was ever called.
func (g *Gauge) Value() (float64, bool) {
	if g == nil {
		return 0, false
	}
	return g.v, g.set
}

// Histogram is a named log-linear quantile sketch plus the exact sum of
// its observations. The embedded stream.Sketch supplies Count, Min, Max
// and Quantile (1 ns .. 1024 s at stream.RelativeError; values outside
// clamp into the edge buckets). The sum stays outside the sketch on
// purpose: float addition is not associative, and the sketch's
// integer-only state is what keeps fleet merges shard-count invariant.
// Observe and Sum are nil-safe; the sketch accessors need a live handle.
type Histogram struct {
	Component, Name string
	stream.Sketch
	sum float64
}

// Observe records one value. Negative values clamp to zero; NaN is
// ignored.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.Sketch.Observe(v)
	if v > 0 {
		h.sum += v
	}
}

// Sum reports the exact sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}
