package main

import (
	"sort"
	"time"
)

// tracer collects the traced run's spans and per-layer values. Spans are
// recorded only from this package, around calls into the program's
// public seams; they nest, and a span's self time is its duration minus
// the time its child spans cover. Everything stays in memory until the
// run ends.
//
// A tracer is used from one goroutine at a time: the workloads call it
// from the goroutine driving the engine, and the simulator runs exactly
// one goroutine at any instant.
type tracer struct {
	spans map[string]*spanAgg
	open  []openSpan
	vals  map[string]float64
	// counters are the program's own telemetry counters at the end of
	// the run, by component/name.
	counters map[string]float64
}

type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*spanAgg{}, vals: map[string]float64{}}
}

func (t *tracer) begin(name string) {
	t.open = append(t.open, openSpan{name: name, start: time.Now()})
}

// end closes the innermost open span, counting n operations under it, and
// returns its duration.
func (t *tracer) end(n int64) time.Duration {
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := time.Since(o.start)
	a := t.spans[o.name]
	if a == nil {
		a = &spanAgg{}
		t.spans[o.name] = a
	}
	a.Count += n
	a.TotalNs += int64(d)
	a.SelfNs += int64(d - o.child)
	if len(t.open) > 0 {
		t.open[len(t.open)-1].child += d
	}
	return d
}

// perOp reports a span's mean total ns per counted operation.
func (t *tracer) perOp(name string) float64 {
	a := t.spans[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return float64(a.TotalNs) / float64(a.Count)
}

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
