// Package synth synthesizes litmus-test shapes from first principles:
// it enumerates every critical cycle over the relational alphabet
// {po, pos, dep, rfe, coe, fre} up to a bounded size, lowers each
// canonical cycle to a litmus.Shape (threads, events, shared locations,
// expected-outcome predicate), and deduplicates the results against the
// shipped shapes and each other via the canonical structural
// fingerprints of internal/litmus.
//
// The paper's evaluation (Section 6) sweeps a fixed suite expanded from
// seven hand-written shapes, so it can only rediscover bugs those
// shapes happen to exercise. Following the cycle-enumeration idea
// behind the herd/diy tool family the paper builds on, every critical
// cycle is a candidate test shape: a cyclic word of relations in which
//
//   - program-order edges never appear twice in a row (po;po merges to
//     po, so each thread contributes at most two accesses),
//   - communication edges are external (they cross threads) and
//     adjacent pairs that compose into a single relation (rf;fr, co;co,
//     fr;co) are excluded,
//   - same-location edges tie their endpoints to one shared variable
//     and different-location program-order edges separate them.
//
// Each surviving cycle lowers to a template shape that expands through
// the Figure 5 memory-order generator, compiles through
// internal/compile, runs on the verification farm via core.Engine.Sweep
// and exports to the on-disk corpus — exactly like the shipped shapes.
// The enumerator rediscovers all seven paper shapes as specific cycles
// (see TestRediscoversPaperShapes) and, beyond them, produces the
// classic diy family (S, R, 2+2W, 3.SB, 3.LB, W+RWC, Z6.*, ...) plus
// shapes with no conventional name at all.
package synth

import (
	"fmt"
	"sort"

	"tricheck/internal/c11"
	"tricheck/internal/litmus"
)

// Options bounds an enumeration. The zero value is not useful; set at
// least MaxLen.
type Options struct {
	// MinLen and MaxLen bound the cycle length (edges = events). MinLen
	// defaults to 3, the smallest well-formed critical cycle.
	MinLen, MaxLen int
	// MaxThreads drops cycles spanning more threads (0 = unbounded).
	MaxThreads int
	// MaxLocs drops cycles over more shared locations (0 = unbounded).
	MaxLocs int
	// Deps includes dependency-flavoured program-order edges.
	Deps bool
	// KeepDegenerate keeps shapes whose specified outcome is not even a
	// candidate execution outcome (normally pruned: such a shape can
	// never witness its cycle at any layer of the stack).
	KeepDegenerate bool
	// KeepDuplicates keeps shapes that are structurally identical to a
	// previously enumerated one (normally collapsed to the first, which
	// has the canonically smallest word).
	KeepDuplicates bool
}

// Synthesized is one enumerated shape with its provenance.
type Synthesized struct {
	// Cycle is the canonical critical cycle.
	Cycle *Cycle
	// Shape is the lowered litmus template.
	Shape *litmus.Shape
	// Fingerprint is the structural fingerprint of the shape's
	// first-choice instantiation — the shape-level dedup key.
	Fingerprint string
	// Novel reports that the shape is not structurally identical to
	// any shipped shape (litmus.AllShapes).
	Novel bool
}

// Enumerate generates every critical cycle within the bounds, lowers
// each to a shape, prunes degenerate ones and collapses structural
// duplicates (the first — canonically smallest — word wins). Results
// are ordered by (cycle length, word); the enumeration is fully
// deterministic.
func Enumerate(opts Options) ([]*Synthesized, error) {
	if opts.MaxLen <= 0 {
		return nil, fmt.Errorf("synth: MaxLen must be positive")
	}
	minLen := opts.MinLen
	if minLen < 3 {
		minLen = 3
	}
	shipped := shippedFingerprints()
	seen := map[string]bool{}
	var out []*Synthesized
	for n := minLen; n <= opts.MaxLen; n++ {
		word := make([]EdgeKind, n)
		var rec func(i int) error
		rec = func(i int) error {
			if i == n {
				if !adjacentOK(word[n-1], word[0]) || !minimalRotation(word) {
					return nil
				}
				s, err := build(word, opts, shipped, seen)
				if err != nil {
					return err
				}
				if s != nil {
					out = append(out, s)
				}
				return nil
			}
			for k := EdgeKind(0); k < numEdgeKinds; k++ {
				if k == Dep && !opts.Deps {
					continue
				}
				if i > 0 && !adjacentOK(word[i-1], k) {
					continue
				}
				word[i] = k
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// adjacentOK applies the critical-cycle adjacency rules: no two
// program-order edges in a row, no kind-incompatible endpoint, and no
// composable communication pair.
func adjacentOK(a, b EdgeKind) bool {
	if a.IsProgramOrder() && b.IsProgramOrder() {
		return false
	}
	if mergeKind(a.tgtKind(), b.srcKind()) == evConflict {
		return false
	}
	return !composable(a, b)
}

// build resolves, bounds-checks, lowers and dedups one canonical word.
// A nil, nil return means the word was filtered.
func build(word []EdgeKind, opts Options, shipped map[string]bool, seen map[string]bool) (*Synthesized, error) {
	c, err := resolve(word)
	if err != nil {
		return nil, nil // not a well-formed critical cycle
	}
	if opts.MaxThreads > 0 && c.NThreads > opts.MaxThreads {
		return nil, nil
	}
	if opts.MaxLocs > 0 && c.NLocs > opts.MaxLocs {
		return nil, nil
	}
	shape, err := Shape(c)
	if err != nil {
		return nil, nil // contradictory coherence constraints
	}
	probe := FirstChoiceInstance(shape)
	if err := probe.Prog.Mem().Validate(); err != nil {
		return nil, fmt.Errorf("synth: %s lowers to an invalid program: %w", c.Word(), err)
	}
	if !opts.KeepDegenerate {
		// The specified outcome must be a candidate execution outcome;
		// candidates are memory-order independent, so one probe
		// instantiation decides for every variant.
		res, err := c11.Evaluate(probe.Prog)
		if err != nil {
			return nil, fmt.Errorf("synth: evaluating %s: %w", c.Word(), err)
		}
		if !res.All[probe.Specified] {
			return nil, nil
		}
	}
	fp := probe.StructuralFingerprint()
	if seen[fp] && !opts.KeepDuplicates {
		return nil, nil
	}
	seen[fp] = true
	return &Synthesized{Cycle: c, Shape: shape, Fingerprint: fp, Novel: !shipped[fp]}, nil
}

// FirstChoiceInstance instantiates a shape with every slot's first
// memory-order choice (rlx for loads and stores) — the canonical probe
// used for shape-level fingerprints (two shapes with the same skeleton
// have identical probes regardless of the order sweep) and the CLI's
// one-representative-per-shape export.
func FirstChoiceInstance(s *litmus.Shape) *litmus.Test {
	orders := make([]c11.Order, len(s.Slots))
	for i, k := range s.Slots {
		orders[i] = k.Choices()[0]
	}
	return s.Instantiate(orders)
}

// shippedFingerprints collects the structural fingerprints of every
// shipped shape, the novelty reference set.
func shippedFingerprints() map[string]bool {
	out := map[string]bool{}
	for _, s := range litmus.AllShapes() {
		out[FirstChoiceInstance(s).StructuralFingerprint()] = true
	}
	return out
}

// NovelOnly filters an enumeration down to the shapes not shipped.
func NovelOnly(in []*Synthesized) []*Synthesized {
	var out []*Synthesized
	for _, s := range in {
		if s.Novel {
			out = append(out, s)
		}
	}
	return out
}

// Shapes projects an enumeration to its litmus templates.
func Shapes(in []*Synthesized) []*litmus.Shape {
	out := make([]*litmus.Shape, len(in))
	for i, s := range in {
		out[i] = s.Shape
	}
	return out
}

// Stats summarizes an enumeration for reports.
type Stats struct {
	// Cycles is the number of shapes, Novel the subset not shipped.
	Cycles, Novel int
	// Variants is the total memory-order expansion size.
	Variants int
	// ByLen counts shapes per cycle length.
	ByLen map[int]int
}

// Summarize tallies an enumeration.
func Summarize(in []*Synthesized) Stats {
	st := Stats{ByLen: map[int]int{}}
	for _, s := range in {
		st.Cycles++
		if s.Novel {
			st.Novel++
		}
		st.Variants += s.Shape.Variants()
		st.ByLen[s.Cycle.Len()]++
	}
	return st
}

// Lengths returns the sorted cycle lengths present in a Stats.ByLen.
func (st Stats) Lengths() []int {
	var out []int
	for n := range st.ByLen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
