// Package obs is the telemetry substrate of the verification farm: an
// allocation-conscious metrics registry (atomic counters, gauges and
// fixed-bucket histograms, rendered in the Prometheus text exposition
// format) plus a lightweight span/trace facility
// (trace ID + parent span, monotonic-clock durations, bounded retention
// of the N slowest traces).
//
// Design constraints, in order:
//
//   - The verdict hot path (per-execution overlay cycle checks) must stay
//     zero-allocation and zero-format. Every hot-path operation here is a
//     handful of atomic adds on pre-registered handles; name lookups,
//     label rendering and bucket math involving strings happen only at
//     registration and scrape time.
//   - One process, one default registry. The farm, the evaluation core
//     and the service all record into Default, so `GET /metrics` and the
//     CLI's -metrics-out file are the same exposition. Tests that need
//     isolation construct their own Registry.
//   - Registration is idempotent: asking for an existing (name, labels)
//     series returns the existing handle, so independently initialized
//     subsystems (multiple engines, multiple servers) share counters
//     instead of panicking.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one metric label pair, fixed at registration time.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket duration histogram. Bucket upper bounds
// are in seconds (the Prometheus convention); observations are atomic
// adds — one bucket increment, one sum add, one count add — with no
// allocation and no formatting.
type Histogram struct {
	// bounds are the inclusive bucket upper bounds in seconds, ascending;
	// a final +Inf bucket is implicit.
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64    // nanoseconds
	count  atomic.Uint64
}

// DurationBuckets is the default bucket ladder for verification-farm
// latencies: 1µs to ~10s, quarter-decade steps. It spans everything from
// a single overlay cycle check (~µs) to a cold full-suite job (~100ms)
// to a whole request sweep (seconds).
var DurationBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1,
	1, 5, 10,
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one observation in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(s * 1e9))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Snapshot returns the cumulative bucket counts (one per bound, plus the
// trailing +Inf bucket) alongside the bounds, for tests and JSON dumps.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// metricKind discriminates the registry's metric families.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	labels    []Label
	labelsKey string // canonical render, for idempotent registration
	c         *Counter
	g         *Gauge
	h         *Histogram
}

// family is one named metric with all its label series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Default is the process-wide registry every subsystem records into.
var Default = NewRegistry()

// labelsKey renders labels canonically (sorted) for series identity.
func labelsKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// lookup finds or creates the (name, labels) series of the given kind.
// Kind or help mismatches on an existing name panic: they are
// programming errors, and failing loud at init beats silently exporting
// a schizophrenic metric.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, fam.kind))
	}
	key := labelsKey(labels)
	for _, s := range fam.series {
		if s.labelsKey == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), labelsKey: key}
	fam.series = append(fam.series, s)
	return s
}

// Counter returns the counter registered under (name, labels), creating
// it on first use. Safe for concurrent use; idempotent.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram registered under (name, labels) with
// the given bucket bounds (nil = DurationBuckets). Bounds are fixed at
// first registration; later callers share them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		if bounds == nil {
			bounds = DurationBuckets
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
		s.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.h
}

// visit calls f under the lock with a stable snapshot of the families in
// registration order.
func (r *Registry) visit(f func(fam *family)) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, fam := range fams {
		f(fam)
	}
}

// formatBound renders a histogram bucket bound the way Prometheus
// clients do: shortest float representation, "+Inf" for the overflow
// bucket.
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}
