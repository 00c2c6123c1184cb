package cover

import (
	"sort"

	"tricheck/api"
)

// Flip is one (test, config) whose verdict changed between two
// snapshots — the signal that a model or mapping edit moved a result.
type Flip struct {
	Test  string `json:"test"`
	Stack string `json:"stack"`
	Old   string `json:"old"`
	New   string `json:"new"`
}

// Regression is one (model, axiom, kind) matrix cell that lost all
// coverage: nonzero in the old snapshot, zero in the new one, for a
// model present in both. Kind is "fired", "edges" or "cycles".
type Regression struct {
	Model string `json:"model"`
	Axiom string `json:"axiom"`
	Kind  string `json:"kind"`
}

// DiffResult reports what changed between two coverage snapshots.
// OnlyOld/OnlyNew count vectors present on just one side (different
// sweep scopes rather than changed results).
type DiffResult struct {
	Flips       []Flip       `json:"flips,omitempty"`
	Regressions []Regression `json:"regressions,omitempty"`
	OnlyOld     int          `json:"only_old,omitempty"`
	OnlyNew     int          `json:"only_new,omitempty"`
}

// Clean reports whether the diff found no flips and no regressions.
func (d *DiffResult) Clean() bool {
	return len(d.Flips) == 0 && len(d.Regressions) == 0
}

// Diff compares two snapshots — typically before and after a model edit:
// verdict flips on shared (test, config) vectors, and axiom-coverage
// regressions on shared models. Results are deterministic: flips sorted
// by (test, stack), regressions by (model, axiom, kind).
func Diff(old, cur *api.CoverageSnapshot) *DiffResult {
	res := &DiffResult{}

	curVec := make(map[[2]string]string, len(cur.Vectors))
	for _, v := range cur.Vectors {
		curVec[[2]string{v.Test, v.Stack}] = v.Verdict
	}
	matched := 0
	for _, v := range old.Vectors {
		nv, ok := curVec[[2]string{v.Test, v.Stack}]
		if !ok {
			res.OnlyOld++
			continue
		}
		matched++
		if nv != v.Verdict {
			res.Flips = append(res.Flips, Flip{Test: v.Test, Stack: v.Stack, Old: v.Verdict, New: nv})
		}
	}
	res.OnlyNew = len(cur.Vectors) - matched
	sort.Slice(res.Flips, func(i, j int) bool {
		if res.Flips[i].Test != res.Flips[j].Test {
			return res.Flips[i].Test < res.Flips[j].Test
		}
		return res.Flips[i].Stack < res.Flips[j].Stack
	})

	curModels := make(map[string]map[string]api.AxiomRow, len(cur.Models))
	for _, mm := range cur.Models {
		rows := make(map[string]api.AxiomRow, len(mm.Axioms))
		for _, r := range mm.Axioms {
			rows[r.Axiom] = r
		}
		curModels[mm.Model] = rows
	}
	for _, mm := range old.Models {
		rows, ok := curModels[mm.Model]
		if !ok {
			continue // model absent from the new run: scope change, not regression
		}
		for _, r := range mm.Axioms {
			nr := rows[r.Axiom] // zero row when the axiom vanished entirely
			for _, k := range [...]struct {
				kind     string
				old, new uint64
			}{
				{"fired", r.Fired, nr.Fired},
				{"edges", r.Edges, nr.Edges},
				{"cycles", r.Cycles, nr.Cycles},
			} {
				if k.old > 0 && k.new == 0 {
					res.Regressions = append(res.Regressions, Regression{
						Model: mm.Model, Axiom: r.Axiom, Kind: k.kind,
					})
				}
			}
		}
	}
	sort.Slice(res.Regressions, func(i, j int) bool {
		a, b := res.Regressions[i], res.Regressions[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Axiom != b.Axiom {
			return a.Axiom < b.Axiom
		}
		return a.Kind < b.Kind
	})
	return res
}
