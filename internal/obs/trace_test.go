package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRingRetainsSlowest pins the bounded min-heap behavior: at
// capacity, a new span is retained only if it beats the current floor,
// and Slowest returns descending durations.
func TestRingRetainsSlowest(t *testing.T) {
	r := NewRing(3)
	for _, ms := range []int{5, 1, 9, 3, 7, 2} {
		r.add(TraceRecord{Name: "s", Dur: time.Duration(ms) * time.Millisecond})
	}
	if r.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", r.Len())
	}
	got := r.Slowest()
	want := []time.Duration{9 * time.Millisecond, 7 * time.Millisecond, 5 * time.Millisecond}
	for i, w := range want {
		if got[i].Dur != w {
			t.Errorf("slowest[%d] = %v, want %v", i, got[i].Dur, w)
		}
	}
}

func TestSpanEndRetains(t *testing.T) {
	r := NewRing(4)
	sp := r.Start(0, 0, "job")
	if sp.Trace() == 0 {
		t.Error("zero trace not minted fresh")
	}
	sp.Attr("test", "mp")
	sp.Phase("skeleton", time.Millisecond)
	sp.Phase("skeleton", time.Millisecond) // accumulates, no duplicate entry
	sp.Phase("enumerate", 2*time.Millisecond)
	sp.End()

	got := r.Slowest()
	if len(got) != 1 {
		t.Fatalf("ring has %d spans, want 1", len(got))
	}
	rec := got[0]
	if rec.TraceS == "" || len(rec.TraceS) != 16 {
		t.Errorf("trace hex %q, want 16 hex chars", rec.TraceS)
	}
	if len(rec.Phases) != 2 || rec.Phases[0].Dur != 2*time.Millisecond {
		t.Errorf("phases %+v: want skeleton accumulated to 2ms", rec.Phases)
	}
	if len(rec.Attrs) != 1 || rec.Attrs[0] != (Label{"test", "mp"}) {
		t.Errorf("attrs %+v", rec.Attrs)
	}

	// Child spans inherit the parent's trace.
	child := r.Start(rec.Trace, rec.Span, "child")
	if child.Trace() != rec.Trace {
		t.Error("child span did not inherit trace")
	}
	child.End()
}

// TestSpanNilSafe pins the branchless-sampling contract: every method
// on a nil span is a no-op.
func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.Attr("k", "v")
	sp.Phase("p", time.Second)
	sp.End()
	if sp.Trace() != 0 || sp.ID() != 0 {
		t.Error("nil span has non-zero identity")
	}
}

func TestTraceRecordJSON(t *testing.T) {
	rec := TraceRecord{TraceS: "00000000000000ff", Name: "verify",
		Dur: time.Millisecond, Attrs: []Label{{"suite", "paper"}}}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace":"00000000000000ff"`, `"dur_ns":1000000`, `{"suite":"paper"}`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("wire form lacks %s: %s", want, b)
		}
	}
}

func TestVerdictSampling(t *testing.T) {
	defer SetVerdictSampling(16) // restore the default
	SetVerdictSampling(1)
	if !SampleVerdict() || !SampleVerdict() {
		t.Error("1-in-1 sampling skipped a verdict")
	}
	SetVerdictSampling(0)
	for i := 0; i < 100; i++ {
		if SampleVerdict() {
			t.Fatal("disabled sampling sampled a verdict")
		}
	}
	SetVerdictSampling(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if SampleVerdict() {
			hits++
		}
	}
	if hits != 100 {
		t.Errorf("1-in-4 sampling hit %d/400, want 100", hits)
	}
}

func TestContextPlumbing(t *testing.T) {
	if tr, sp := TraceFromContext(context.Background()); tr != 0 || sp != 0 {
		t.Error("empty context carries a trace")
	}
	trace, span := NewTraceID(), newSpanID()
	ctx := ContextWithTrace(context.Background(), trace, span)
	gotT, gotS := TraceFromContext(ctx)
	if gotT != trace || gotS != span {
		t.Errorf("round trip: got (%v, %v), want (%v, %v)", gotT, gotS, trace, span)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %v", id)
		}
		seen[id] = true
	}
}
