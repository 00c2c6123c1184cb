package uspec

import (
	"fmt"
	"reflect"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
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

// TestPreparedPoolReuseIsClean: Close returns a Prepared, with its
// closure and builder scratch, to a pool that the next Prepare draws
// from. A large nMCA evaluation and a small MCA one (mp on WR), run one
// after the other in both orders, must each get the result and coverage
// of the pair's first evaluation: nothing a pooled Prepared keeps may
// carry over from one program or model to the next. The large ones are
// iriw on nMM and an 8-thread fenced store-buffering ring on nMM, whose
// 80 ports leave every candidate to the overlay.
func TestPreparedPoolReuseIsClean(t *testing.T) {
	type pair struct {
		name  string
		model *Model
		prog  *isa.Program
	}
	compiled := func(tst *litmus.Test) *isa.Program {
		prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	iriw := litmus.IRIW.Instantiate([]c11.Order{c11.SC, c11.SC, c11.SC, c11.SC, c11.SC, c11.SC})
	big := pair{"iriw on nMM", NMM(Curr), compiled(iriw)}
	wide := pair{"sb ring on nMM", NMM(Curr), sbRing(8)}
	small := pair{"mp on WR", WR(Curr), compiled(litmus.MP.Generate()[0])}
	pr := wide.model.Prepare(wide.prog)
	if ports := len(pr.ports); ports <= 64 {
		t.Fatalf("%s has %d ports, want more than 64", wide.name, ports)
	}
	pr.Close()
	first := map[string]evaluation{}
	for _, large := range []pair{big, wide} {
		for _, order := range [][]pair{{large, small, large, small}, {small, large, small, large}} {
			for _, p := range order {
				got := evaluateGroup(t, p.prog, []*Model{p.model})[0]
				want, ok := first[p.name]
				if !ok {
					first[p.name] = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s after reuse: %+v, first evaluation %+v", p.name, got, want)
				}
			}
		}
	}
	for _, large := range []pair{big, wide} {
		if len(first[large.name].res.Outcomes) <= len(first[small.name].res.Outcomes) {
			t.Errorf("%s has %d outcomes and %s %d: the first pair should be the larger",
				large.name, len(first[large.name].res.Outcomes), small.name, len(first[small.name].res.Outcomes))
		}
	}
	if first[wide.name].cov.Cycle == 0 {
		t.Errorf("%s witnessed no cycle: the overlay must meet cyclic candidates too", wide.name)
	}
}

// sbRing returns an n-thread store-buffering ring: thread t stores 1 to
// its own location, fences, and loads the next thread's location.
func sbRing(n int) *isa.Program {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	p := isa.NewProgram(isa.RISCV, n, names...)
	for t := 0; t < n; t++ {
		p.Add(t, riscv.SW(mem.Const(1), mem.Const(int64(t))))
		p.Add(t, riscv.Fence(isa.ClassRW, isa.ClassRW))
		p.Add(t, riscv.LW(0, mem.Const(int64((t+1)%n))))
		p.Observe(t, 0, fmt.Sprintf("r%d", t))
	}
	return p
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
