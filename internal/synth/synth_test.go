package synth

import (
	"reflect"
	"sort"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
)

// byName finds an enumerated shape by cycle word or shape name.
func byName(in []*Synthesized, name string) *Synthesized {
	for _, s := range in {
		if s.Shape.Name == name || s.Cycle.Word() == name {
			return s
		}
	}
	return nil
}

// TestRediscoversPaperShapes is the regression gate demanded by the
// synthesizer's design: the enumerator must rediscover the paper's own
// shapes as specific critical cycles. For the shapes whose lowering is
// value-for-value identical to the hand-written template (mp, sb, lb,
// wrc, rwc, iriw, and the coherence shapes s, r, 2+2w) the synthesized
// rlx instance must carry the SAME canonical fingerprint as the shipped
// one — the farm would share memoized results between them. CoRR is
// rediscovered in its classic one-write form (the shipped template uses
// a two-write variant), checked structurally.
func TestRediscoversPaperShapes(t *testing.T) {
	res, err := Enumerate(Options{MaxLen: 6, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	exact := []struct{ word, shipped string }{
		{"po.rfe.po.fre", "mp"},
		{"po.fre.po.fre", "sb"},
		{"po.rfe.po.rfe", "lb"},
		{"po.rfe.po.fre.rfe", "wrc"},
		{"po.fre.po.fre.rfe", "rwc"},
		{"po.fre.rfe.po.fre.rfe", "iriw"},
		{"po.rfe.po.coe", "s"},
		{"po.coe.po.fre", "r"},
		{"po.coe.po.coe", "2+2w"},
	}
	for _, want := range exact {
		s := byName(res, want.word)
		if s == nil {
			t.Errorf("cycle %s (%s) not enumerated", want.word, want.shipped)
			continue
		}
		shipped := litmus.ShapeByName(want.shipped)
		if shipped == nil {
			t.Fatalf("shipped shape %s missing", want.shipped)
		}
		if s.Novel {
			t.Errorf("%s: rediscovered %s marked novel", want.word, want.shipped)
		}
		synthFP := FirstChoiceInstance(s.Shape).Fingerprint()
		shippedFP := FirstChoiceInstance(shipped).Fingerprint()
		if want.shipped == "s" || want.shipped == "r" || want.shipped == "2+2w" {
			// The coherence shapes number their written values by
			// authoring convention, not coherence position: identical
			// modulo value numbering (structural), not value-for-value.
			synthFP = FirstChoiceInstance(s.Shape).StructuralFingerprint()
			shippedFP = FirstChoiceInstance(shipped).StructuralFingerprint()
		}
		if synthFP != shippedFP {
			t.Errorf("%s: fingerprint differs from shipped %s\n synth: %s\n shipped: %s",
				want.word, want.shipped, FirstChoiceInstance(s.Shape).Prog, FirstChoiceInstance(shipped).Prog)
		}
		// The slot multiset must agree too (synth orders slots by its
		// own thread walk), so the Figure 5 expansion visits the same
		// variant space.
		if want.shipped != "s" && want.shipped != "r" && want.shipped != "2+2w" {
			if !reflect.DeepEqual(sortedSlots(s.Shape.Slots), sortedSlots(shipped.Slots)) {
				t.Errorf("%s: slots %v, shipped %s has %v", want.word, s.Shape.Slots, want.shipped, shipped.Slots)
			}
			if s.Shape.Specified != shipped.Specified {
				t.Errorf("%s: specified %q, shipped %s has %q", want.word, s.Shape.Specified, want.shipped, shipped.Specified)
			}
		}
	}

	// W-pos->R lowering (CoWR): a read po-after its own thread's
	// same-location write observes that write, so cycles with such
	// edges lower to satisfiable outcomes instead of being pruned...
	cowr := byName(res, "pos.fre.pos.fre.rfe")
	if cowr == nil {
		t.Error("cycle pos.fre.pos.fre.rfe (W-pos->R class) not enumerated")
	} else if cowr.Shape.Specified != "r0=2; r1=0; r2=1; x=2" {
		t.Errorf("pos.fre.pos.fre.rfe specified %q, want the CoWR-pinned outcome", cowr.Shape.Specified)
	}
	// ...while genuinely contradictory ones (both reads observing their
	// own write and from-reading the other's) stay rejected.
	if byName(res, "pos.fre.pos.fre") != nil {
		t.Error("pos.fre.pos.fre has a coherence cycle and must be rejected")
	}

	// CoRR: the classic one-write read-read coherence cycle.
	corr := byName(res, "pos.fre.rfe")
	if corr == nil {
		t.Fatal("cycle pos.fre.rfe (corr) not enumerated")
	}
	if corr.Cycle.NThreads != 2 || corr.Cycle.NLocs != 1 || corr.Cycle.Len() != 3 {
		t.Errorf("corr cycle: threads=%d locs=%d len=%d, want 2/1/3",
			corr.Cycle.NThreads, corr.Cycle.NLocs, corr.Cycle.Len())
	}
	if corr.Shape.Specified != "r0=1; r1=0" {
		t.Errorf("corr specified %q, want the stale second read", corr.Shape.Specified)
	}
}

// TestEnumerationDeterministic: two enumerations yield the same words in
// the same order, and every word is its own minimal rotation and unique.
func TestEnumerationDeterministic(t *testing.T) {
	a, err := Enumerate(Options{MaxLen: 5, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(Options{MaxLen: 5, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("enumeration size changed across runs: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Cycle.Word() != b[i].Cycle.Word() {
			t.Fatalf("enumeration order changed at %d: %s vs %s", i, a[i].Cycle.Word(), b[i].Cycle.Word())
		}
		w := a[i].Cycle.Word()
		if seen[w] {
			t.Errorf("duplicate word %s", w)
		}
		seen[w] = true
		if !minimalRotation(a[i].Cycle.Edges) {
			t.Errorf("%s is not a minimal rotation", w)
		}
	}
}

// TestBounds: thread/location/length bounds filter as documented.
func TestBounds(t *testing.T) {
	res, err := Enumerate(Options{MaxLen: 6, MaxThreads: 2, MaxLocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res {
		if s.Cycle.NThreads > 2 || s.Cycle.NLocs > 2 || s.Cycle.Len() > 6 {
			t.Errorf("%s exceeds bounds: threads=%d locs=%d len=%d",
				s.Cycle.Word(), s.Cycle.NThreads, s.Cycle.NLocs, s.Cycle.Len())
		}
	}
	if byName(res, "po.fre.rfe.po.fre.rfe") != nil {
		t.Error("iriw (4 threads) survived MaxThreads=2")
	}
	if byName(res, "po.fre.po.fre") == nil {
		t.Error("sb (2 threads, 2 locs) filtered out")
	}
}

// TestShapesAreCriticalCycles: every synthesized shape's specified
// outcome is (a) a candidate execution outcome — it can be reached at
// the enumeration layer — and (b) forbidden by C11 when every access is
// seq_cst — i.e. the shape witnesses a genuine SC-violating cycle, like
// each of the paper's hand-written shapes.
func TestShapesAreCriticalCycles(t *testing.T) {
	res, err := Enumerate(Options{MaxLen: 5, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("empty enumeration")
	}
	for _, s := range res {
		probe := FirstChoiceInstance(s.Shape)
		if err := probe.Prog.Mem().Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", s.Cycle.Word(), err)
			continue
		}
		r, err := c11.Evaluate(probe.Prog)
		if err != nil {
			t.Fatalf("%s: %v", s.Cycle.Word(), err)
		}
		if !r.All[probe.Specified] {
			t.Errorf("%s: specified %q is not a candidate outcome", s.Cycle.Word(), probe.Specified)
		}
		sc := make([]c11.Order, len(s.Shape.Slots))
		for i := range sc {
			sc[i] = c11.SC
		}
		scInst := s.Shape.Instantiate(sc)
		rsc, err := c11.Evaluate(scInst.Prog)
		if err != nil {
			t.Fatalf("%s: %v", s.Cycle.Word(), err)
		}
		if rsc.Allowed[scInst.Specified] {
			t.Errorf("%s: specified %q allowed under all-seq_cst — not a critical cycle",
				s.Cycle.Word(), scInst.Specified)
		}
	}
}

// TestExpandsAndCompiles: synthesized shapes expand through the
// Figure 5 generator (3^slots variants) and lower through a compiler
// mapping — toolflow step 2 — without error.
func TestExpandsAndCompiles(t *testing.T) {
	res, err := Enumerate(Options{MaxLen: 4, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res {
		tests := s.Shape.Generate()
		want := 1
		for range s.Shape.Slots {
			want *= 3
		}
		if len(tests) != want {
			t.Errorf("%s: %d variants, want %d", s.Cycle.Word(), len(tests), want)
		}
		for _, m := range []*compile.Mapping{compile.RISCVBaseIntuitive, compile.RISCVBaseRefined} {
			if _, err := compile.Compile(m, tests[0].Prog); err != nil {
				t.Errorf("%s: compile with %s: %v", s.Cycle.Word(), m.Name, err)
			}
		}
	}
}

// TestDuplicateCollapse: a rotation of an enumerated word lowers to a
// structurally identical shape (the fingerprint collapses it onto the
// canonical form), the rotation filter rejects non-minimal words, and
// the deduplicated enumeration has pairwise-distinct fingerprints.
func TestDuplicateCollapse(t *testing.T) {
	// mp rotated to start at its other run boundary.
	rotated := []EdgeKind{Po, Fre, Po, Rfe}
	if minimalRotation(rotated) {
		t.Error("po.fre.po.rfe should not be a minimal rotation (po.rfe.po.fre is smaller)")
	}
	c, err := resolve(rotated)
	if err != nil {
		t.Fatal(err)
	}
	rotShape, err := Shape(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Enumerate(Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	mp := byName(res, "po.rfe.po.fre")
	if mp == nil {
		t.Fatal("mp cycle missing")
	}
	if got := FirstChoiceInstance(rotShape).StructuralFingerprint(); got != mp.Fingerprint {
		t.Error("rotated mp cycle does not collapse onto the canonical word")
	}

	seen := map[string]string{}
	all, err := Enumerate(Options{MaxLen: 6, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if prev, ok := seen[s.Fingerprint]; ok {
			t.Errorf("shapes %s and %s share a structural fingerprint after dedup", prev, s.Cycle.Word())
		}
		seen[s.Fingerprint] = s.Cycle.Word()
	}
}

func sortedSlots(in []litmus.SlotKind) []litmus.SlotKind {
	out := append([]litmus.SlotKind(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
