package tricheck_test

import (
	"fmt"
	"log"
	"strings"
	"testing"

	"tricheck"
)

// ExampleEngine_Run demonstrates the quick-start flow: detect the Figure 3
// WRC bug on an nMCA RISC-V implementation under the current MCM.
func ExampleEngine_Run() {
	eng := tricheck.NewEngine()
	test := tricheck.WRC.Instantiate([]tricheck.Order{
		tricheck.Rlx, tricheck.Rlx, tricheck.Rel, tricheck.Acq, tricheck.Rlx})
	res, err := eng.Run(test, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive,
		Model:   tricheck.NMM(tricheck.Curr),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Verdict)
	// Output: Bug
}

// ExampleEngine_RunSuite shows family-level aggregation: the Section 5.1.1
// count of 108 buggy WRC variants.
func ExampleEngine_RunSuite() {
	eng := tricheck.NewEngine()
	res, err := eng.RunSuite(tricheck.WRC.Generate(), tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive,
		Model:   tricheck.NMM(tricheck.Curr),
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Tally.SpecifiedBugs)
	// Output: 108
}

func TestFacadeShapeRegistry(t *testing.T) {
	if len(tricheck.PaperShapes()) != 7 {
		t.Errorf("%d paper shapes, want 7", len(tricheck.PaperShapes()))
	}
	if len(tricheck.AllShapes()) < 10 {
		t.Errorf("%d shapes total, want the extended set too", len(tricheck.AllShapes()))
	}
	if tricheck.ShapeByName("iriw") != tricheck.IRIW {
		t.Error("ShapeByName broken through the facade")
	}
	if len(tricheck.PaperSuite()) != 1701 {
		t.Errorf("paper suite = %d tests, want 1701", len(tricheck.PaperSuite()))
	}
}

func TestFacadeMappingsAndModels(t *testing.T) {
	if len(tricheck.Mappings()) != 9 {
		t.Errorf("%d mappings, want 9", len(tricheck.Mappings()))
	}
	if tricheck.MappingByName("riscv-base-refined") != tricheck.RISCVBaseRefined {
		t.Error("MappingByName broken")
	}
	for _, v := range []tricheck.Variant{tricheck.Curr, tricheck.Ours} {
		if len(tricheck.Models(v)) != 7 {
			t.Errorf("%d models for %v, want 7", len(tricheck.Models(v)), v)
		}
	}
	if tricheck.ModelByName("A9like", tricheck.Curr) == nil {
		t.Error("ModelByName broken")
	}
	if tricheck.PowerA9() == nil || tricheck.PowerA9Fixed() == nil ||
		tricheck.SCProofModel() == nil || tricheck.AlphaLike() == nil {
		t.Error("companion model constructors broken")
	}
}

func TestFacadeCompileAndReports(t *testing.T) {
	test := tricheck.MP.Instantiate([]tricheck.Order{
		tricheck.Rlx, tricheck.Rel, tricheck.Acq, tricheck.Rlx})
	prog, err := tricheck.CompileTest(tricheck.RISCVAtomicsIntuitive, test)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumThreads() != 2 {
		t.Errorf("compiled threads = %d", prog.NumThreads())
	}
	eng := tricheck.NewEngine()
	res, err := eng.RunSuite(tricheck.MP.Generate(), tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fig, csv, t7, mt strings.Builder
	tricheck.WriteFigure15(&fig, []*tricheck.SuiteResult{res})
	tricheck.WriteCSV(&csv, []*tricheck.SuiteResult{res})
	tricheck.WriteTable7(&t7, tricheck.Curr)
	tricheck.WriteMappingTable(&mt, tricheck.RISCVBaseIntuitive)
	for name, s := range map[string]string{
		"Figure15": fig.String(), "CSV": csv.String(), "Table7": t7.String(), "MappingTable": mt.String(),
	} {
		if s == "" {
			t.Errorf("%s writer produced nothing", name)
		}
	}
}

func TestFacadeStacks(t *testing.T) {
	stacks := tricheck.RISCVStacks(true, tricheck.Ours)
	if len(stacks) != 7 {
		t.Fatalf("%d stacks", len(stacks))
	}
	for _, s := range stacks {
		if s.Mapping != tricheck.RISCVBaseRefined {
			t.Error("base/ours stacks must pair with the refined mapping")
		}
	}
}

// TestFacadeSynthesis: the synthesis surface — enumerate, filter,
// summarize, run one novel shape end to end through the engine.
func TestFacadeSynthesis(t *testing.T) {
	res, err := tricheck.SynthesizeShapes(tricheck.SynthOptions{MaxLen: 4, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	st := tricheck.SynthSummarize(res)
	if st.Cycles != 12 || st.Novel != 6 || st.Variants != 918 {
		t.Errorf("max-len 4 with deps: %d shapes / %d novel / %d variants, want 12/6/918",
			st.Cycles, st.Novel, st.Variants)
	}
	novel := tricheck.SynthNovelOnly(res)
	if len(novel) != st.Novel {
		t.Fatalf("SynthNovelOnly kept %d, want %d", len(novel), st.Novel)
	}
	if got := len(tricheck.SynthShapes(res)); got != st.Cycles {
		t.Fatalf("SynthShapes kept %d, want %d", got, st.Cycles)
	}
	// The one-write CoRR cycle bugs on the Section 5.1.3 stack.
	var corr *tricheck.Synthesized
	for _, s := range novel {
		if s.Shape.Name == "syn-pos.fre.rfe" {
			corr = s
		}
	}
	if corr == nil {
		t.Fatal("syn-pos.fre.rfe missing")
	}
	eng := tricheck.NewEngine()
	sr, err := eng.RunSuite(corr.Shape.Generate(),
		tricheck.Stack{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Tally.SpecifiedBugs != 6 {
		t.Errorf("one-write corr on Base/nMM-curr: %d specified bugs, want 6", sr.Tally.SpecifiedBugs)
	}
	// Structural fingerprints collapse a test and its thread-permuted
	// corpus round trip onto one identity.
	probe := corr.Shape.Generate()[0]
	if tricheck.StructuralFingerprint(probe) != corr.Fingerprint {
		t.Error("facade StructuralFingerprint disagrees with the synthesizer's dedup key")
	}
}
