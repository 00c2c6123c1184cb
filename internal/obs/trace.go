package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The span/trace facility. A Span is a named timed region with a trace
// ID, an optional parent span, attributes and a flat list of named phase
// durations. Completed root spans are offered to a Ring, which retains
// the N slowest — the "where did the time go" answer for /v1/traces and
// the CLI hot-spot report.
//
// Span methods are nil-receiver-safe so sampling call sites stay
// branchless:
//
//	var sp *obs.Span // nil unless this job was sampled
//	if obs.SampleVerdict() {
//		sp = obs.DefaultTraces.Start(trace, parent, "verify-job")
//	}
//	...
//	sp.Phase("skeleton", d) // no-op when not sampled
//	sp.End()

// TraceID identifies one logical trace (a request, a sampled job).
type TraceID uint64

// SpanID identifies one span within the process.
type SpanID uint64

// String renders the ID as fixed-width hex (the wire form).
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// idCounter seeds trace/span IDs: a random 64-bit base (so IDs from
// different processes don't collide in aggregated logs) plus an atomic
// counter.
var idCounter = func() *atomic.Uint64 {
	var b [8]byte
	var c atomic.Uint64
	if _, err := rand.Read(b[:]); err == nil {
		c.Store(binary.LittleEndian.Uint64(b[:]))
	}
	return &c
}()

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() TraceID { return TraceID(idCounter.Add(1)) }

func newSpanID() SpanID { return SpanID(idCounter.Add(1)) }

// PhaseTiming is one named duration inside a span.
type PhaseTiming struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// TraceRecord is a completed span in retention/wire form.
type TraceRecord struct {
	Trace  TraceID       `json:"-"`
	TraceS string        `json:"trace"` // hex form, filled at completion
	Span   SpanID        `json:"span"`
	Parent SpanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Phases []PhaseTiming `json:"phases,omitempty"`
	Attrs  []Label       `json:"attrs,omitempty"`
}

// MarshalJSON flattens attrs into a string map for readable wire output.
func (l Label) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("{%q:%q}", l.Key, l.Value)), nil
}

// Span is an in-progress timed region. Create with Ring.Start; finish
// with End. Not safe for concurrent use (one span belongs to one
// goroutine, like a stack frame).
type Span struct {
	rec   TraceRecord
	ring  *Ring
	start time.Time
}

// Start begins a span. A zero trace mints a fresh trace ID; parent may
// be 0 for roots. The span is offered to the ring on End.
func (r *Ring) Start(trace TraceID, parent SpanID, name string) *Span {
	if trace == 0 {
		trace = NewTraceID()
	}
	now := time.Now()
	return &Span{
		rec: TraceRecord{
			Trace:  trace,
			Span:   newSpanID(),
			Parent: parent,
			Name:   name,
			Start:  now,
		},
		ring:  r,
		start: now,
	}
}

// Trace returns the span's trace ID (0 on a nil span).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// ID returns the span's ID (0 on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.Span
}

// Attr attaches a key/value attribute.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Label{key, value})
}

// Phase records a named sub-duration (monotonic-clock measured by the
// caller). Repeated names accumulate.
func (s *Span) Phase(name string, d time.Duration) {
	if s == nil {
		return
	}
	for i := range s.rec.Phases {
		if s.rec.Phases[i].Name == name {
			s.rec.Phases[i].Dur += d
			return
		}
	}
	s.rec.Phases = append(s.rec.Phases, PhaseTiming{name, d})
}

// End completes the span (duration = monotonic time since Start) and
// offers it to the ring. End on a nil span is a no-op; End twice is the
// caller's bug (the span would be retained twice).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.Dur = time.Since(s.start)
	s.rec.TraceS = s.rec.Trace.String()
	if s.ring != nil {
		s.ring.add(s.rec)
	}
}

// Ring retains the N slowest completed spans (a bounded min-heap keyed
// by duration, mutex-guarded: offers are O(log n) and only taken when a
// span beats the current floor).
type Ring struct {
	mu  sync.Mutex
	cap int
	// heap is a min-heap on Dur so the cheapest retained span is at the
	// root, ready to be displaced.
	heap []TraceRecord
}

// DefaultTraceCapacity is the default slow-trace retention.
const DefaultTraceCapacity = 64

// NewRing returns a ring retaining the capacity slowest spans
// (0 = DefaultTraceCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Ring{cap: capacity}
}

// DefaultTraces is the process-wide slow-trace ring: the service's
// /v1/traces and the sampled verdict spans share it.
var DefaultTraces = NewRing(0)

func (r *Ring) add(rec TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.heap) < r.cap {
		r.heap = append(r.heap, rec)
		r.up(len(r.heap) - 1)
		return
	}
	if rec.Dur <= r.heap[0].Dur {
		return
	}
	r.heap[0] = rec
	r.down(0)
}

func (r *Ring) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.heap[p].Dur <= r.heap[i].Dur {
			return
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

func (r *Ring) down(i int) {
	n := len(r.heap)
	for {
		l, rr := 2*i+1, 2*i+2
		m := i
		if l < n && r.heap[l].Dur < r.heap[m].Dur {
			m = l
		}
		if rr < n && r.heap[rr].Dur < r.heap[m].Dur {
			m = rr
		}
		if m == i {
			return
		}
		r.heap[i], r.heap[m] = r.heap[m], r.heap[i]
		i = m
	}
}

// Slowest returns the retained spans, slowest first.
func (r *Ring) Slowest() []TraceRecord {
	r.mu.Lock()
	out := append([]TraceRecord(nil), r.heap...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// Len returns the number of retained spans.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.heap)
}

// ── Sampling ────────────────────────────────────────────────────────────

// verdictSampleEvery is the 1-in-N sampling rate for per-verdict spans
// (0 disables). The default keeps span allocation off the common case
// while a sweep of any size still lands representatives in the ring.
var verdictSampleEvery atomic.Int64

func init() { verdictSampleEvery.Store(16) }

// SetVerdictSampling sets the per-verdict span sampling to 1-in-n
// (n <= 0 disables).
func SetVerdictSampling(n int) { verdictSampleEvery.Store(int64(n)) }

var verdictSampleCounter atomic.Uint64

// SampleVerdict reports whether this verdict job should carry a span
// (1-in-N across the process; false when sampling is off).
func SampleVerdict() bool {
	n := verdictSampleEvery.Load()
	if n <= 0 {
		return false
	}
	return verdictSampleCounter.Add(1)%uint64(n) == 0
}

// ── Context plumbing ────────────────────────────────────────────────────

type ctxKey struct{}

type ctxTrace struct {
	trace TraceID
	span  SpanID
}

// ContextWithTrace attaches a trace ID and parent span to a context, so
// sweeps started under a request adopt its trace.
func ContextWithTrace(ctx context.Context, trace TraceID, span SpanID) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxTrace{trace, span})
}

// TraceFromContext extracts the attached trace/span (zero values when
// absent).
func TraceFromContext(ctx context.Context) (TraceID, SpanID) {
	if v, ok := ctx.Value(ctxKey{}).(ctxTrace); ok {
		return v.trace, v.span
	}
	return 0, 0
}
