package uspec

import (
	"reflect"
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/litmus"
)

// TestEvaluateAllMatchesAlone pins group ≡ alone: several models
// evaluated over one enumeration borrow one scratch execution and one
// outcome-id sequence, so each must still get, model by model, exactly
// the result, counters and axiom coverage it gets when it is prepared
// and evaluated on its own — in either model order.
func TestEvaluateAllMatchesAlone(t *testing.T) {
	type pairing struct {
		mapping *compile.Mapping
		variant Variant
	}
	// The four Figure 15 RISC-V mappings, each with its variant's Table 7
	// models.
	pairings := []pairing{
		{compile.RISCVBaseIntuitive, Curr},
		{compile.RISCVBaseRefined, Ours},
		{compile.RISCVAtomicsIntuitive, Curr},
		{compile.RISCVAtomicsRefined, Ours},
	}
	var tests []*litmus.Test
	for _, s := range []*litmus.Shape{litmus.MP, litmus.SB, litmus.WRC, litmus.IRIW} {
		tests = append(tests, s.Generate()...)
	}
	if testing.Short() {
		tests = sampledTests(tests, 7)
	}
	for _, pg := range pairings {
		models := Models(pg.variant)
		reversed := make([]*Model, len(models))
		for i, m := range models {
			reversed[len(models)-1-i] = m
		}
		for _, tst := range tests {
			prog, err := compile.Compile(pg.mapping, tst.Prog)
			if err != nil {
				t.Fatalf("compile %s with %s: %v", tst.Name, pg.mapping.Name, err)
			}
			want := map[*Model]evaluation{}
			for _, m := range models {
				want[m] = evaluateGroup(t, prog, []*Model{m})[0]
			}
			for _, order := range [][]*Model{models, reversed} {
				for i, got := range evaluateGroup(t, prog, order) {
					m := order[i]
					if !reflect.DeepEqual(got, want[m]) {
						t.Fatalf("%s on %s+%s: grouped %+v, alone %+v",
							tst.Name, pg.mapping.Name, m.FullName(), got, want[m])
					}
				}
			}
			compile.ReleaseProgram(prog)
		}
	}
}

// evaluation is what TestEvaluateAllMatchesAlone compares per model.
type evaluation struct {
	res Result
	cov Coverage
}

// evaluateGroup prepares every model on prog and evaluates them all over
// one enumeration.
func evaluateGroup(t *testing.T, prog *isa.Program, models []*Model) []evaluation {
	t.Helper()
	prs := make([]*Prepared, len(models))
	for i, m := range models {
		prs[i] = m.Prepare(prog)
	}
	rs, err := EvaluateAll(prs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]evaluation, len(prs))
	for i, pr := range prs {
		out[i] = evaluation{res: *rs[i], cov: pr.Coverage()}
		pr.Close()
	}
	return out
}

// sampledTests returns every stride-th test.
func sampledTests(tests []*litmus.Test, stride int) []*litmus.Test {
	var out []*litmus.Test
	for i := 0; i < len(tests); i += stride {
		out = append(out, tests[i])
	}
	return out
}

// TestEvaluateAllRejectsMixedPrograms: models prepared on different
// programs cannot share an enumeration.
func TestEvaluateAllRejectsMixedPrograms(t *testing.T) {
	tst := litmus.MP.Generate()[0]
	var prs []*Prepared
	for _, mp := range []*compile.Mapping{compile.RISCVBaseIntuitive, compile.RISCVBaseRefined} {
		prog, err := compile.Compile(mp, tst.Prog)
		if err != nil {
			t.Fatal(err)
		}
		pr := WR(Curr).Prepare(prog)
		defer pr.Close()
		prs = append(prs, pr)
	}
	if _, err := EvaluateAll(prs); err == nil {
		t.Fatal("EvaluateAll accepted models prepared on two programs")
	}
	if rs, err := EvaluateAll(nil); err != nil || len(rs) != 0 {
		t.Fatalf("EvaluateAll(nil) = %v, %v; want no results", rs, err)
	}
}
