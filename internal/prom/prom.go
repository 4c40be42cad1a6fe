// Package prom is ACT's hand-rolled Prometheus instrumentation: counters,
// gauges and histograms rendered in the text exposition format (version
// 0.0.4) without a client-library dependency — the format is line-oriented
// text, and the instrument kinds actd needs are small, lock-cheap structs.
// Instruments register in creation order and render deterministically (vec
// children sorted by label values), so /metrics output is stable enough to
// golden-test. The serving layer and the telemetry exporter both register
// into one registry, which is how exporter self-metrics fold into actd's
// existing /metrics endpoint.

package prom

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds instruments and renders them as Prometheus text.
type Registry struct {
	mu          sync.Mutex
	instruments []renderable
}

type renderable interface {
	render(b *strings.Builder)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(inst renderable) {
	r.mu.Lock()
	r.instruments = append(r.instruments, inst)
	r.mu.Unlock()
}

// Render returns the full exposition-format dump of every registered
// instrument, in registration order.
func (r *Registry) Render() string {
	r.mu.Lock()
	insts := make([]renderable, len(r.instruments))
	copy(insts, r.instruments)
	r.mu.Unlock()
	var b strings.Builder
	for _, inst := range insts {
		inst.render(&b)
	}
	return b.String()
}

// header writes the # HELP / # TYPE preamble.
func header(b *strings.Builder, name, help, kind string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// FormatFloat renders a sample value the way the exposition format
// expects: the shortest round-trippable decimal, with ±Inf as "+Inf" and
// "-Inf" and NaN as "NaN" (strconv's spellings already). Both /metrics and
// the telemetry exporter's line protocol write values with it.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing count.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(b *strings.Builder) {
	header(b, c.name, c.help, "counter")
	fmt.Fprintf(b, "%s %d\n", c.name, c.Value())
}

// CounterVec is a family of counters split by a fixed label set.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	children   map[string]*atomic.Uint64 // key: rendered label pairs
}

// NewCounterVec creates and registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labels, children: map[string]*atomic.Uint64{}}
	r.register(v)
	return v
}

// With returns the child counter for the given label values (one per
// declared label, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *atomic.Uint64 {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("prom: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	pairs := make([]string, len(values))
	for i, val := range values {
		pairs[i] = v.labels[i] + `="` + escapeLabel(val) + `"`
	}
	key := strings.Join(pairs, ",")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &atomic.Uint64{}
		v.children[key] = c
	}
	return c
}

// Value returns the current count for the given label values (0 when the
// child does not exist yet) — a test convenience.
func (v *CounterVec) Value(values ...string) uint64 {
	return v.With(values...).Load()
}

func (v *CounterVec) render(b *strings.Builder) {
	header(b, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s} %d\n", v.name, k, v.children[k].Load())
	}
	v.mu.Unlock()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Gauge is an integer value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge creates and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) render(b *strings.Builder) {
	header(b, g.name, g.help, "gauge")
	fmt.Fprintf(b, "%s %d\n", g.name, g.Value())
}

// GaugeVec is a family of gauges split by a fixed label set.
type GaugeVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	children   map[string]*atomic.Int64 // key: rendered label pairs
}

// NewGaugeVec creates and registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{name: name, help: help, labels: labels, children: map[string]*atomic.Int64{}}
	r.register(v)
	return v
}

// With returns the child gauge for the given label values (one per
// declared label, in order), creating it on first use.
func (v *GaugeVec) With(values ...string) *atomic.Int64 {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("prom: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	pairs := make([]string, len(values))
	for i, val := range values {
		pairs[i] = v.labels[i] + `="` + escapeLabel(val) + `"`
	}
	key := strings.Join(pairs, ",")
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[key]
	if !ok {
		g = &atomic.Int64{}
		v.children[key] = g
	}
	return g
}

// Value returns the current value for the given label values — a test
// convenience.
func (v *GaugeVec) Value(values ...string) int64 {
	return v.With(values...).Load()
}

func (v *GaugeVec) render(b *strings.Builder) {
	header(b, v.name, v.help, "gauge")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s} %d\n", v.name, k, v.children[k].Load())
	}
	v.mu.Unlock()
}

// GaugeFunc is a gauge whose value is read from a callback at render time —
// for values some other component already tracks (queue depth, pool
// occupancy) that would otherwise need redundant bookkeeping.
type GaugeFunc struct {
	name, help string
	fn         func() int64
}

// CounterFunc is a callback-backed counter: the value is read at render
// time from a source that already counts monotonically (recoveries,
// quarantines), so there is no second copy to keep in sync.
type CounterFunc struct {
	name, help string
	fn         func() int64
}

// NewCounterFunc creates and registers a callback counter. The callback
// must be monotonically non-decreasing for the series to obey counter
// semantics.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) *CounterFunc {
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.register(c)
	return c
}

// Value returns the callback's current value.
func (c *CounterFunc) Value() int64 { return c.fn() }

func (c *CounterFunc) render(b *strings.Builder) {
	header(b, c.name, c.help, "counter")
	fmt.Fprintf(b, "%s %d\n", c.name, c.fn())
}

// NewGaugeFunc creates and registers a callback gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

// Value returns the callback's current value.
func (g *GaugeFunc) Value() int64 { return g.fn() }

func (g *GaugeFunc) render(b *strings.Builder) {
	header(b, g.name, g.help, "gauge")
	fmt.Fprintf(b, "%s %d\n", g.name, g.fn())
}

// DefaultLatencyBuckets are the upper bounds (seconds) of the request
// latency histogram — the Prometheus client default spread.
var DefaultLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a cumulative-bucket histogram of float observations.
type Histogram struct {
	name, help string
	bounds     []float64

	mu     sync.Mutex
	counts []uint64
	sum    float64
	count  uint64
}

// NewHistogram creates and registers a histogram with the given upper
// bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("prom: histogram bounds not sorted: " + name)
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]uint64, len(bounds))}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations — a test convenience.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) render(b *strings.Builder) {
	header(b, h.name, h.help, "histogram")
	h.mu.Lock()
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, FormatFloat(ub), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.count)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, FormatFloat(h.sum))
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.count)
	h.mu.Unlock()
}
