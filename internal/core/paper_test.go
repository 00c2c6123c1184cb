package core

import (
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

// TestHeadline1701 pins the paper's abstract headline: "we find that a
// RISC-V-compliant microarchitecture allows 144 outcomes forbidden by C11
// to be observed out of 1,701 litmus tests examined". That
// microarchitecture is nMM (equivalently A9like) running the intuitive
// Base+A mapping under the current RISC-V MCM: 72 WRC + 18 CoRR + 54
// CO-RSDWI buggy variants.
func TestHeadline1701(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1701-test sweep")
	}
	e := NewEngine()
	suite := litmus.PaperSuite()
	if len(suite) != 1701 {
		t.Fatalf("suite size %d, want 1701", len(suite))
	}
	res, err := e.RunSuite(suite, Stack{Mapping: compile.RISCVAtomicsIntuitive, Model: uspec.NMM(uspec.Curr)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.SpecifiedBugs != 144 {
		t.Errorf("headline: %d forbidden-yet-observed outcomes, want 144", res.Tally.SpecifiedBugs)
	}
	want := map[string]int{"wrc": 72, "corr": 18, "co-rsdwi": 54, "mp": 0, "sb": 0, "rwc": 0, "iriw": 0}
	for fam, n := range want {
		if got := res.ByFamily[fam].SpecifiedBugs; got != n {
			t.Errorf("family %s: %d specified bugs, want %d", fam, got, n)
		}
	}
	// And the refined stack eliminates all of them.
	res2, err := e.RunSuite(suite, Stack{Mapping: compile.RISCVAtomicsRefined, Model: uspec.NMM(uspec.Ours)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tally.Bugs != 0 {
		t.Errorf("riscv-ours: %d bugs, want 0", res2.Tally.Bugs)
	}
}

// TestHeadlineBaseCounts pins the Base-ISA per-model totals implied by
// Section 6.1: nWR = 108 WRC + 2 RWC + 4 IRIW = 114; nMM and A9like add
// 18 CoRR + 54 CO-RSDWI = 186.
func TestHeadlineBaseCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1701-test sweeps")
	}
	e := NewEngine()
	suite := litmus.PaperSuite()
	cases := []struct {
		model *uspec.Model
		want  int
	}{
		{uspec.NWR(uspec.Curr), 114},
		{uspec.NMM(uspec.Curr), 186},
		{uspec.A9like(uspec.Curr), 186},
	}
	for _, c := range cases {
		res, err := e.RunSuite(suite, Stack{Mapping: compile.RISCVBaseIntuitive, Model: c.model}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.SpecifiedBugs != c.want {
			t.Errorf("Base riscv-curr on %s: %d specified bugs, want %d", c.model.FullName(), res.Tally.SpecifiedBugs, c.want)
		}
	}
}

// TestSection7TrailingSync reproduces the compiler-mapping study: on the
// PowerA9 model, the leading-sync mapping (Table 1) has no mapping bugs on
// the rwc family, while the trailing-sync mapping admits counterexamples —
// C11-forbidden outcomes observable because the SC load's sync comes too
// late to propagate writes observed by an earlier acquire. These are the
// counterexamples that invalidated the "proven-correct" trailing-sync
// mapping (Manerkar et al., reference [36]).
func TestSection7TrailingSync(t *testing.T) {
	e := NewEngine()
	m := uspec.PowerA9()
	rwc := litmus.RWC.Generate()
	lead, err := e.RunSuite(rwc, Stack{Mapping: compile.PowerLeadingSync, Model: m}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lead.Tally.Bugs != 0 {
		t.Errorf("leading-sync on rwc: %d bugs, want 0", lead.Tally.Bugs)
	}
	trail, err := e.RunSuite(rwc, Stack{Mapping: compile.PowerTrailingSync, Model: m}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trail.Tally.Bugs == 0 {
		t.Fatal("trailing-sync on rwc: no counterexamples found")
	}
	// The canonical counterexample shape: everything SC except an acquire
	// first load.
	found := false
	for _, r := range trail.Results {
		if r.Verdict == Bug && r.Test.Name == "rwc[sc,acq,sc,sc,sc]" {
			found = true
		}
	}
	if !found {
		t.Error("rwc[sc,acq,sc,sc,sc] counterexample not found")
	}
}

// TestSection7LoadLoadHazardBugs: both Power mappings exhibit the ARM
// load→load hazard (Figure 1) on the corr family — a hardware bug no
// mapping fixes — and the repaired model clears it. Leading-sync exposes
// 18 variants (first load rlx, second rlx-or-acq); trailing-sync exposes
// 27 because its SC loads carry no leading fence either.
func TestSection7LoadLoadHazardBugs(t *testing.T) {
	e := NewEngine()
	corr := litmus.CoRR.Generate()
	for _, c := range []struct {
		mapping *compile.Mapping
		want    int
	}{
		{compile.PowerLeadingSync, 18},
		{compile.PowerTrailingSync, 27},
	} {
		mapping := c.mapping
		res, err := e.RunSuite(corr, Stack{Mapping: mapping, Model: uspec.PowerA9()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.SpecifiedBugs != c.want {
			t.Errorf("%s on PowerA9: corr specified bugs = %d, want %d", mapping.Name, res.Tally.SpecifiedBugs, c.want)
		}
		fixed, err := e.RunSuite(corr, Stack{Mapping: mapping, Model: uspec.PowerA9Fixed()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Tally.Bugs != 0 {
			t.Errorf("%s on PowerA9Fixed: %d bugs, want 0", mapping.Name, fixed.Tally.Bugs)
		}
	}
}

// TestFigure1LoadLoadHazard replays the paper's opening example end to
// end: a C11 program with relaxed same-address loads, compiled with the
// standard ARMv7 mapping, intermittently shows a C11-forbidden outcome on
// Cortex-A9-like hardware. ARM's compiler fix (dmb after atomic loads)
// hides the hazard — at the cost Figure 2 measures — and repairing the
// hardware instead also clears it.
func TestFigure1LoadLoadHazard(t *testing.T) {
	e := NewEngine()
	corr := litmus.CoRR.Generate()
	a9 := uspec.PowerA9()
	broken, err := e.RunSuite(corr, Stack{Mapping: compile.ARMv7Standard, Model: a9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if broken.Tally.SpecifiedBugs == 0 {
		t.Fatal("Figure 1: hazard not reproduced under the standard ARMv7 mapping")
	}
	fixedSW, err := e.RunSuite(corr, Stack{Mapping: compile.ARMv7HazardFix, Model: a9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fixedSW.Tally.Bugs != 0 {
		t.Errorf("ARM's dmb-after-load fix leaves %d bugs", fixedSW.Tally.Bugs)
	}
	fixedHW, err := e.RunSuite(corr, Stack{Mapping: compile.ARMv7Standard, Model: uspec.PowerA9Fixed()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fixedHW.Tally.Bugs != 0 {
		t.Errorf("hardware same-address R→R fix leaves %d bugs", fixedHW.Tally.Bugs)
	}
	// The software fix over-synchronizes relative to the hardware fix:
	// strictly more OverlyStrict verdicts on the mp family.
	mp := litmus.MP.Generate()
	sw, err := e.RunSuite(mp, Stack{Mapping: compile.ARMv7HazardFix, Model: a9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := e.RunSuite(mp, Stack{Mapping: compile.ARMv7Standard, Model: uspec.PowerA9Fixed()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Tally.Strict <= hw.Tally.Strict {
		t.Errorf("dmb-after-load fix should over-synchronize: strict %d (sw) vs %d (hw)",
			sw.Tally.Strict, hw.Tally.Strict)
	}
}

// TestX86TSOClassicResult: with the standard C11→x86 mapping on the TSO
// model, the entire 1,701-test paper suite is bug-free, and the only
// families with any Overly Strict slack are those whose weak outcomes need
// relaxations TSO does not have — the folklore "x86 only does store
// buffering" result, derived here from first principles.
func TestX86TSOClassicResult(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1701-test sweep")
	}
	e := NewEngine()
	res, err := e.RunSuite(litmus.PaperSuite(), Stack{Mapping: compile.X86TSO, Model: uspec.TSO()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Bugs != 0 {
		t.Errorf("x86-TSO stack shows %d bugs, want 0", res.Tally.Bugs)
	}
	// SB's weak outcome must remain observable (no mfence on relaxed code).
	sbRlx := litmus.SB.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	r, err := e.Run(sbRlx, Stack{Mapping: compile.X86TSO, Model: uspec.TSO()})
	if err != nil {
		t.Fatal(err)
	}
	if !r.SpecifiedObservable {
		t.Error("store buffering must be observable on TSO")
	}
	// And all-SC SB must be forbidden (the trailing mfence works).
	sbSC := litmus.SB.Instantiate([]c11.Order{c11.SC, c11.SC, c11.SC, c11.SC})
	r2, err := e.Run(sbSC, Stack{Mapping: compile.X86TSO, Model: uspec.TSO()})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SpecifiedObservable {
		t.Error("SC store buffering must be forbidden under st;mfence")
	}
}

// refinement is one stack of a refinement walk and the verdict a test
// must get on it.
type refinement struct {
	mapping *compile.Mapping
	model   *uspec.Model
	want    Verdict
}

// checkRefinements runs the named variant on each stack of a walk through
// the refinement step of Figure 6 and checks its verdict there.
func checkRefinements(t *testing.T, test string, walk []refinement) {
	t.Helper()
	tst, err := litmus.ParseVariantName(test)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	for _, c := range walk {
		s := Stack{Mapping: c.mapping, Model: c.model}
		r, err := e.Run(tst, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != c.want {
			t.Errorf("%s on %s: verdict %v, want %v", test, s.Name(), r.Verdict, c.want)
		}
	}
}

// TestRefinementLoopNarrative walks the Section 5.1 refinement loop on the
// Figure 3 WRC test: bug found under riscv-curr on nMM, apply the proposed
// fix (cumulative fences: refined mapping on the riscv-ours model), rerun,
// fixed.
func TestRefinementLoopNarrative(t *testing.T) {
	checkRefinements(t, "wrc[rlx,rlx,rel,acq,rlx]", []refinement{
		{compile.RISCVBaseIntuitive, uspec.NMM(uspec.Curr), Bug},
		{compile.RISCVBaseRefined, uspec.NMM(uspec.Ours), Equivalent},
	})
}

// TestSuggestFixesWRC: the Section 5.1.1 bug needs cumulative fences.
// Refining the model alone leaves it, because the intuitive mapping's
// fences stay non-cumulative. Refining the mapping alone repairs it: the
// refined mapping emits the proposed cumulative fences, and the µspec
// models honour the cumulativity of whatever fence they are given.
func TestSuggestFixesWRC(t *testing.T) {
	checkRefinements(t, "wrc[rlx,rlx,rel,acq,rlx]", []refinement{
		{compile.RISCVBaseRefined, uspec.NMM(uspec.Curr), Equivalent},
		{compile.RISCVBaseIntuitive, uspec.NMM(uspec.Ours), Bug},
	})
}

// TestSuggestFixesCoRR: the Section 5.1.3 bug is a pure ISA/hardware
// problem. Relaxed loads compile identically under both mappings, so
// refining the mapping alone leaves it; ordering same-address loads in
// riscv-ours repairs it.
func TestSuggestFixesCoRR(t *testing.T) {
	checkRefinements(t, "corr[rlx,rlx,rlx,rlx]", []refinement{
		{compile.RISCVBaseIntuitive, uspec.RMM(uspec.Curr), Bug},
		{compile.RISCVBaseRefined, uspec.RMM(uspec.Curr), Bug},
		{compile.RISCVBaseIntuitive, uspec.RMM(uspec.Ours), Equivalent},
	})
}

// TestSuggestFixesStrictness: the roach-motel finding of Section 5.2.2,
// mp[sc,rlx,sc,sc], is overly strict under the intuitive Base+A mapping
// on either model, and refining the mapping makes it exact on either; no
// refinement introduces a bug.
func TestSuggestFixesStrictness(t *testing.T) {
	checkRefinements(t, "mp[sc,rlx,sc,sc]", []refinement{
		{compile.RISCVAtomicsIntuitive, uspec.NMM(uspec.Curr), OverlyStrict},
		{compile.RISCVAtomicsIntuitive, uspec.NMM(uspec.Ours), OverlyStrict},
		{compile.RISCVAtomicsRefined, uspec.NMM(uspec.Curr), Equivalent},
		{compile.RISCVAtomicsRefined, uspec.NMM(uspec.Ours), Equivalent},
	})
}
