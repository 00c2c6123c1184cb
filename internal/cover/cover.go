// Package cover is the verification-coverage ledger: the observability
// layer for the verification domain itself, as opposed to the process
// telemetry in internal/obs. It aggregates three things across a run:
//
//   - a per-(model, axiom) matrix counting the evaluations in which each
//     axiom fired an edge, owned a stored (post-dedup) edge, and had an
//     edge on a forbidding cycle — the evidence that a model's axioms
//     were actually exercised, not merely configured;
//   - per-(test, config) verdict vectors — the raw material for the
//     discrimination matrix and the greedy minimal-suite reducer
//     (discriminate.go);
//   - snapshot diffing between runs, flagging verdict flips and
//     axiom-coverage regressions after a model edit (diff.go).
//
// The package is generic over the axiom space: callers hand NewLedger
// the axiom and verdict name catalogues (in tricheck, uspec.AxiomNames
// and the core verdict names), and every record call passes bitsets
// indexed the same way. Recording is lock-free atomic adds on the matrix
// side, so it can sit on the engine's job completion path.
package cover

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"tricheck/api"
)

// Ledger is a process- or engine-scoped coverage accumulator. Safe for
// concurrent use. It keeps one matrix row block per model and one byte
// row of verdicts per test; neither is ever evicted.
type Ledger struct {
	axioms   []string
	verdicts []string

	mu     sync.Mutex
	models map[string]*ModelCoverage

	// The verdict vectors: one byte row per test, with a column per stack
	// name, interned on first record. A row holds verdict ordinal + 1 in
	// each recorded column and 0 in the rest, so Equivalent (ordinal 0)
	// stays distinct from an absent record; a row shorter than the
	// column count has no record past its end.
	vmu     sync.Mutex
	columns map[string]int // stack → column
	stacks  []string       // column → stack
	vectors map[string][]uint8
}

// NewLedger returns a ledger over the given axiom and verdict name
// catalogues. Axiom indices must fit a uint64 bitset.
func NewLedger(axioms, verdicts []string) *Ledger {
	if len(axioms) > 64 {
		panic(fmt.Sprintf("cover: %d axioms exceed the uint64 bitset", len(axioms)))
	}
	return &Ledger{
		axioms:   append([]string(nil), axioms...),
		verdicts: append([]string(nil), verdicts...),
		models:   map[string]*ModelCoverage{},
		columns:  map[string]int{},
		vectors:  map[string][]uint8{},
	}
}

// Axioms returns the axiom catalogue the ledger is keyed by.
func (l *Ledger) Axioms() []string { return l.axioms }

// ModelCoverage is one model's row block of the coverage matrix:
// per-axiom evaluation counts and per-verdict job tallies, all atomic.
type ModelCoverage struct {
	jobs     atomic.Uint64
	verdicts []atomic.Uint64
	fired    []atomic.Uint64
	edges    []atomic.Uint64
	cycles   []atomic.Uint64
}

// Model returns (registering on first use) the named model's matrix rows.
func (l *Ledger) Model(name string) *ModelCoverage {
	l.mu.Lock()
	defer l.mu.Unlock()
	mc := l.models[name]
	if mc == nil {
		n := len(l.axioms)
		mc = &ModelCoverage{
			verdicts: make([]atomic.Uint64, len(l.verdicts)),
			fired:    make([]atomic.Uint64, n),
			edges:    make([]atomic.Uint64, n),
			cycles:   make([]atomic.Uint64, n),
		}
		l.models[name] = mc
	}
	return mc
}

// Record folds one executed evaluation into the matrix: fired/edges/
// cycles are axiom bitsets (the per-job uspec.Coverage), verdict the
// job's verdict ordinal. Each set bit increments that axiom's
// evaluation count; the bitset-to-counter fold is the only per-job cost.
func (mc *ModelCoverage) Record(verdict int, fired, edges, cycles uint64) {
	mc.jobs.Add(1)
	if verdict >= 0 && verdict < len(mc.verdicts) {
		mc.verdicts[verdict].Add(1)
	}
	for b := fired; b != 0; b &= b - 1 {
		mc.fired[bits.TrailingZeros64(b)].Add(1)
	}
	for b := edges; b != 0; b &= b - 1 {
		mc.edges[bits.TrailingZeros64(b)].Add(1)
	}
	for b := cycles; b != 0; b &= b - 1 {
		mc.cycles[bits.TrailingZeros64(b)].Add(1)
	}
}

// RecordVector stores the verdict of one (test, config) pair — executed
// or memoized — for the discrimination matrix, in the test's byte row.
// Verdicts are deterministic, so repeated records of the same pair are
// idempotent. The verdict ordinal must be below 255.
func (l *Ledger) RecordVector(test, stack string, verdict uint8) {
	l.vmu.Lock()
	col, ok := l.columns[stack]
	if !ok {
		col = len(l.stacks)
		l.columns[stack] = col
		l.stacks = append(l.stacks, stack)
	}
	row := l.vectors[test]
	if col >= len(row) {
		row = append(row, make([]uint8, len(l.stacks)-len(row))...)
		l.vectors[test] = row
	}
	row[col] = verdict + 1
	l.vmu.Unlock()
}

// eachVector calls f on every recorded (test, stack, verdict), in no
// particular order. The caller holds vmu.
func (l *Ledger) eachVector(f func(test, stack string, verdict uint8)) {
	for test, row := range l.vectors {
		for col, v := range row {
			if v != 0 {
				f(test, l.stacks[col], v-1)
			}
		}
	}
}

// verdictName renders a verdict ordinal from the catalogue.
func (l *Ledger) verdictName(v uint8) string {
	if int(v) < len(l.verdicts) {
		return l.verdicts[v]
	}
	return fmt.Sprintf("verdict(%d)", v)
}

// Snapshot captures the ledger's current state in its wire form, the
// GET /v1/coverage body and the `-coverage-out` / `coverage diff` file
// format. It is fully deterministic: models sorted by name, axiom rows
// (only those with a nonzero count) in catalogue order, vectors sorted
// by (test, stack).
func (l *Ledger) Snapshot() *api.CoverageSnapshot {
	s := &api.CoverageSnapshot{Axioms: append([]string(nil), l.axioms...)}
	var unionFired, unionEdges, unionCycles uint64

	l.mu.Lock()
	names := make([]string, 0, len(l.models))
	for name := range l.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mc := l.models[name]
		mm := api.ModelMatrix{Model: name, Jobs: mc.jobs.Load()}
		for v := range mc.verdicts {
			if c := mc.verdicts[v].Load(); c > 0 {
				if mm.Verdicts == nil {
					mm.Verdicts = map[string]uint64{}
				}
				mm.Verdicts[l.verdictName(uint8(v))] = c
			}
		}
		for i := range l.axioms {
			row := api.AxiomRow{
				Axiom:  l.axioms[i],
				Fired:  mc.fired[i].Load(),
				Edges:  mc.edges[i].Load(),
				Cycles: mc.cycles[i].Load(),
			}
			if row.Fired == 0 && row.Edges == 0 && row.Cycles == 0 {
				continue
			}
			if row.Fired > 0 {
				unionFired |= 1 << i
			}
			if row.Edges > 0 {
				unionEdges |= 1 << i
			}
			if row.Cycles > 0 {
				unionCycles |= 1 << i
			}
			mm.Axioms = append(mm.Axioms, row)
		}
		s.Totals.Jobs += mm.Jobs
		s.Models = append(s.Models, mm)
	}
	l.mu.Unlock()

	l.vmu.Lock()
	l.eachVector(func(test, stack string, v uint8) {
		s.Vectors = append(s.Vectors, api.VectorRecord{
			Test: test, Stack: stack, Verdict: l.verdictName(v),
		})
	})
	l.vmu.Unlock()
	sort.Slice(s.Vectors, func(i, j int) bool {
		if s.Vectors[i].Test != s.Vectors[j].Test {
			return s.Vectors[i].Test < s.Vectors[j].Test
		}
		return s.Vectors[i].Stack < s.Vectors[j].Stack
	})

	s.Totals.Models = len(s.Models)
	s.Totals.AxiomsFired = bits.OnesCount64(unionFired)
	s.Totals.AxiomsEdged = bits.OnesCount64(unionEdges)
	s.Totals.AxiomsCycled = bits.OnesCount64(unionCycles)
	s.Totals.Vectors = len(s.Vectors)
	return s
}

// TotalsNow computes the snapshot totals without materializing the full
// snapshot — the cheap form stamped onto NDJSON summary records.
func (l *Ledger) TotalsNow() api.CoverageTotals {
	var t api.CoverageTotals
	var unionFired, unionEdges, unionCycles uint64
	l.mu.Lock()
	t.Models = len(l.models)
	for _, mc := range l.models {
		t.Jobs += mc.jobs.Load()
		for i := range l.axioms {
			if mc.fired[i].Load() > 0 {
				unionFired |= 1 << i
			}
			if mc.edges[i].Load() > 0 {
				unionEdges |= 1 << i
			}
			if mc.cycles[i].Load() > 0 {
				unionCycles |= 1 << i
			}
		}
	}
	l.mu.Unlock()
	l.vmu.Lock()
	l.eachVector(func(string, string, uint8) { t.Vectors++ })
	l.vmu.Unlock()
	t.AxiomsFired = bits.OnesCount64(unionFired)
	t.AxiomsEdged = bits.OnesCount64(unionEdges)
	t.AxiomsCycled = bits.OnesCount64(unionCycles)
	return t
}
