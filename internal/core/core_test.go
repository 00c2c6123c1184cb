package core

import (
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

func runOne(t *testing.T, tst *litmus.Test, s Stack) *TestResult {
	t.Helper()
	e := NewEngine()
	r, err := e.Run(tst, s)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", tst.Name, s.Name(), err)
	}
	return r
}

func TestFigure3WRCBugVerdict(t *testing.T) {
	tst := litmus.WRC.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	// riscv-curr on nMM: bug.
	r := runOne(t, tst, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.NMM(uspec.Curr)})
	if r.Verdict != Bug || !r.SpecifiedBug {
		t.Fatalf("verdict = %v specifiedBug=%v, want Bug/true", r.Verdict, r.SpecifiedBug)
	}
	// riscv-ours on nMM: no bug.
	r2 := runOne(t, tst, Stack{Mapping: compile.RISCVBaseRefined, Model: uspec.NMM(uspec.Ours)})
	if r2.Verdict == Bug {
		t.Fatalf("riscv-ours verdict = Bug; bug outcomes: %v", r2.BugOutcomes)
	}
	// On the strong WR model the outcome is forbidden: equivalent or strict.
	r3 := runOne(t, tst, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.WR(uspec.Curr)})
	if r3.Verdict == Bug {
		t.Fatalf("WR model shows WRC bug: %v", r3.BugOutcomes)
	}
}

// TestSection61WRCCount reproduces §6.1: 108 of the 243 WRC variants are
// buggy on each Base riscv-curr nMCA model (counted by specified outcome).
func TestSection61WRCCount(t *testing.T) {
	e := NewEngine()
	tests := litmus.WRC.Generate()
	for _, model := range []*uspec.Model{uspec.NWR(uspec.Curr), uspec.NMM(uspec.Curr), uspec.A9like(uspec.Curr)} {
		res, err := e.RunSuite(tests, Stack{Mapping: compile.RISCVBaseIntuitive, Model: model}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.SpecifiedBugs != 108 {
			t.Errorf("%s: WRC specified bugs = %d, want 108", model.FullName(), res.Tally.SpecifiedBugs)
		}
	}
	// MCA/rMCA models show none.
	for _, model := range []*uspec.Model{uspec.WR(uspec.Curr), uspec.RWR(uspec.Curr), uspec.RWM(uspec.Curr), uspec.RMM(uspec.Curr)} {
		res, err := e.RunSuite(tests, Stack{Mapping: compile.RISCVBaseIntuitive, Model: model}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.SpecifiedBugs != 0 {
			t.Errorf("%s: WRC specified bugs = %d, want 0", model.FullName(), res.Tally.SpecifiedBugs)
		}
	}
}

// TestSection61RWCCount reproduces §6.1: 2 buggy RWC variants on Base
// riscv-curr nMCA models.
func TestSection61RWCCount(t *testing.T) {
	e := NewEngine()
	tests := litmus.RWC.Generate()
	res, err := e.RunSuite(tests, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.NMM(uspec.Curr)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.SpecifiedBugs != 2 {
		t.Errorf("RWC specified bugs = %d, want 2", res.Tally.SpecifiedBugs)
	}
}

// TestSection61CoRRCounts reproduces §6.1's same-address coherence bug
// counts on the R→R-relaxing riscv-curr models, for both ISAs: CoRR 18/81
// and CO-RSDWI 54/243 (first load rlx, second load rlx-or-acq, any store
// orders). The Base+A counts rely on AMO-load write-backs being modelled
// as silent stores (see isa.OpAMOLoad); with coherence-visible write-backs
// the acquire-load variants become architecturally unobservable and the
// counts halve.
func TestSection61CoRRCounts(t *testing.T) {
	e := NewEngine()
	type want struct{ corr, rsdwi int }
	expect := map[*compile.Mapping]want{
		compile.RISCVBaseIntuitive:    {18, 54},
		compile.RISCVAtomicsIntuitive: {18, 54},
	}
	for mapping, w := range expect {
		for _, model := range []*uspec.Model{uspec.RMM(uspec.Curr), uspec.NMM(uspec.Curr), uspec.A9like(uspec.Curr)} {
			s := Stack{Mapping: mapping, Model: model}
			corr, err := e.RunSuite(litmus.CoRR.Generate(), s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if corr.Tally.SpecifiedBugs != w.corr {
				t.Errorf("%s: CoRR specified bugs = %d, want %d", s.Name(), corr.Tally.SpecifiedBugs, w.corr)
			}
			rsdwi, err := e.RunSuite(litmus.CORSDWI.Generate(), s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rsdwi.Tally.SpecifiedBugs != w.rsdwi {
				t.Errorf("%s: CO-RSDWI specified bugs = %d, want %d", s.Name(), rsdwi.Tally.SpecifiedBugs, w.rsdwi)
			}
		}
		// Models that keep R→R in order show none.
		s := Stack{Mapping: mapping, Model: uspec.NWR(uspec.Curr)}
		corr, err := e.RunSuite(litmus.CoRR.Generate(), s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if corr.Tally.SpecifiedBugs != 0 {
			t.Errorf("%s: CoRR specified bugs = %d, want 0", s.Name(), corr.Tally.SpecifiedBugs)
		}
	}
}

// TestSection61IRIWCount reproduces §6.1: 4 buggy IRIW variants on Base
// riscv-curr nMCA models.
func TestSection61IRIWCount(t *testing.T) {
	if testing.Short() {
		t.Skip("729 tests × µspec evaluation")
	}
	e := NewEngine()
	tests := litmus.IRIW.Generate()
	res, err := e.RunSuite(tests, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.NWR(uspec.Curr)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.SpecifiedBugs != 4 {
		t.Errorf("IRIW specified bugs = %d, want 4", res.Tally.SpecifiedBugs)
	}
}

// TestRiscvOursNoBugs: the refined stack eliminates every bug across the
// smaller paper families on the weakest models (full-suite check lives in
// the benchmark harness / EXPERIMENTS.md).
func TestRiscvOursNoBugs(t *testing.T) {
	e := NewEngine()
	families := []*litmus.Shape{litmus.MP, litmus.SB, litmus.CoRR, litmus.WRC, litmus.RWC, litmus.CORSDWI}
	for _, base := range []bool{true, false} {
		for _, s := range RISCVStacks(base, uspec.Ours) {
			if s.Model.Name != "nMM" && s.Model.Name != "A9like" {
				continue // weakest models are the interesting ones
			}
			for _, fam := range families {
				res, err := e.RunSuite(fam.Generate(), s, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tally.Bugs != 0 {
					t.Errorf("%s on %s: %d bugs, want 0", fam.Name, s.Name(), res.Tally.Bugs)
				}
			}
		}
	}
}

// TestEngineSoundnessFailureInjection: a deliberately broken mapping
// (release stores compiled with no fence at all) must be flagged as a bug
// by the engine on weak hardware — the engine's own bug-finding soundness.
func TestEngineSoundnessFailureInjection(t *testing.T) {
	broken := &compile.Mapping{
		Name: "riscv-base-broken", Arch: compile.RISCVBaseIntuitive.Arch,
		LoadRlx:  compile.Recipe{compile.Access()},
		LoadAcq:  compile.Recipe{compile.Access()}, // missing fence!
		LoadSC:   compile.Recipe{compile.Access()},
		StoreRlx: compile.Recipe{compile.Access()},
		StoreRel: compile.Recipe{compile.Access()}, // missing fence!
		StoreSC:  compile.Recipe{compile.Access()},
	}
	tst := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	r := runOne(t, tst, Stack{Mapping: broken, Model: uspec.NMM(uspec.Curr)})
	if r.Verdict != Bug {
		t.Fatalf("broken mapping not flagged: verdict %v", r.Verdict)
	}
	diag, err := NewEngine().Diagnose(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diag, "bug") {
		t.Errorf("diagnosis %q does not mention the bug", diag)
	}
}

// TestVerdictMatrix exercises all three verdicts.
func TestVerdictMatrix(t *testing.T) {
	// Equivalent-ish: relaxed MP on a weak model (everything observable
	// and allowed).
	rlx := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	r := runOne(t, rlx, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.NMM(uspec.Curr)})
	if r.Verdict != Equivalent {
		t.Errorf("relaxed MP on nMM: verdict %v (strict: %v)", r.Verdict, r.StrictOutcomes)
	}
	// OverlyStrict: relaxed SB on the SC ablation model.
	sb := litmus.SB.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	r2 := runOne(t, sb, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.SCProof()})
	if r2.Verdict != OverlyStrict {
		t.Errorf("relaxed SB on SC model: verdict %v, want OverlyStrict", r2.Verdict)
	}
	// Bug: CoRR relaxed on rMM/curr.
	corr := litmus.CoRR.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	r3 := runOne(t, corr, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.RMM(uspec.Curr)})
	if r3.Verdict != Bug {
		t.Errorf("relaxed CoRR on rMM/curr: verdict %v, want Bug", r3.Verdict)
	}
}

// TestSuiteAggregation: family tallies sum to the total.
func TestSuiteAggregation(t *testing.T) {
	e := NewEngine()
	tests := append(litmus.MP.Generate(), litmus.SB.Generate()...)
	res, err := e.RunSuite(tests, Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.RWR(uspec.Curr)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Total != 162 {
		t.Fatalf("total = %d, want 162", res.Tally.Total)
	}
	sum := 0
	for _, name := range res.FamilyNames() {
		sum += res.ByFamily[name].Total
	}
	if sum != res.Tally.Total {
		t.Errorf("family totals %d != %d", sum, res.Tally.Total)
	}
	if res.Tally.Bugs+res.Tally.Strict+res.Tally.Equivalent != res.Tally.Total {
		t.Error("verdict counts do not sum to total")
	}
	if res.Tally.Bugs != 0 {
		t.Errorf("MP/SB on rWR should have no bugs, got %d", res.Tally.Bugs)
	}
}

// TestStacksConstruction: RISCVStacks pairs mappings and model variants
// coherently.
func TestStacksConstruction(t *testing.T) {
	for _, base := range []bool{true, false} {
		for _, v := range []uspec.Variant{uspec.Curr, uspec.Ours} {
			stacks := RISCVStacks(base, v)
			if len(stacks) != 7 {
				t.Fatalf("want 7 stacks, got %d", len(stacks))
			}
			for _, s := range stacks {
				if s.Model.Variant != v {
					t.Errorf("stack %s has wrong variant", s.Name())
				}
			}
		}
	}
	if RISCVStacks(true, uspec.Curr)[0].Mapping != compile.RISCVBaseIntuitive {
		t.Error("base/curr should pair with the intuitive Base mapping")
	}
	if RISCVStacks(false, uspec.Ours)[0].Mapping != compile.RISCVAtomicsRefined {
		t.Error("base+a/ours should pair with the refined Base+A mapping")
	}
}
