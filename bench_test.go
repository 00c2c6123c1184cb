// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, regenerating the corresponding rows/series. Custom metrics
// report the reproduced quantities (bug counts, overheads) so a bench run
// doubles as a results table:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers are not comparable to the paper (its
// substrate was Herd + Check + phone silicon; ours is a pure-Go
// reimplementation), but every reported metric should match the shapes
// recorded in EXPERIMENTS.md.
//
// The two-tier evaluation core (a static µhb skeleton per program and
// model, its port closure deciding each candidate, and an overlay filled
// only for a cyclic candidate's witnessing cycle) changes only ns/op and
// allocs/op here; every reported metric (bugs, strict, tests, headline
// counts) is bit-identical to the single-graph evaluator it replaced. CI
// runs the Figure-15, farm, synth, stack-resolution and opsim benchmarks
// with -benchmem, archives the raw JSON as the BENCH_9.json artifact and
// renders its deltas against the committed BENCH_8.json, accumulating the
// perf trajectory across changes.
//
// Step 1 lives for one sweep: a benchmark that calls Run, RunSuite or
// Sweep again on the same engine without a memo cache pays the C11
// evaluation on every iteration, as a fresh engine does.
package tricheck_test

import (
	"context"
	"testing"

	"tricheck"
	"tricheck/internal/opsim"
	"tricheck/internal/sieve"
	"tricheck/internal/timing"
)

// BenchmarkFigure2Sieve regenerates Figure 2's three runtime series
// (relaxed / relaxed+fix / SC atomics, 1–8 threads) on the simulated
// multicore and reports the two headline ratios at 8 threads.
func BenchmarkFigure2Sieve(b *testing.B) {
	var pts []sieve.Figure2Point
	for i := 0; i < b.N; i++ {
		pts = sieve.Figure2(200000, 8, timing.DefaultConfig())
	}
	last := pts[len(pts)-1]
	b.ReportMetric(100*last.FixOverhead, "fix-overhead-%@8t")
	b.ReportMetric(100*last.SCOverFixed, "sc-over-fix-%@8t")
}

// benchFamily sweeps one litmus family over a stack and reports bug counts.
func benchFamily(b *testing.B, shape *tricheck.Shape, s tricheck.Stack) {
	b.Helper()
	eng := tricheck.NewEngine()
	tests := shape.Generate()
	var bugs, strict int
	for i := 0; i < b.N; i++ {
		res, err := eng.RunSuite(tests, s, 0)
		if err != nil {
			b.Fatal(err)
		}
		bugs, strict = res.Tally.SpecifiedBugs, res.Tally.Strict
	}
	b.ReportMetric(float64(bugs), "bugs")
	b.ReportMetric(float64(strict), "strict")
	b.ReportMetric(float64(len(tests)), "tests")
}

// Figure 15, panel 1: wrc (and rwc) on Base, riscv-curr vs riscv-ours.
// The nMM rows are the interesting ones (108 and 2 bugs respectively).
func BenchmarkFigure15WRCBaseCurr(b *testing.B) {
	benchFamily(b, tricheck.WRC, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)})
}

func BenchmarkFigure15WRCBaseOurs(b *testing.B) {
	benchFamily(b, tricheck.WRC, tricheck.Stack{
		Mapping: tricheck.RISCVBaseRefined, Model: tricheck.NMM(tricheck.Ours)})
}

func BenchmarkFigure15RWCBaseCurr(b *testing.B) {
	benchFamily(b, tricheck.RWC, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)})
}

// Figure 15, panel 1 (right half): wrc on Base+A — 72 bugs under
// riscv-curr (non-cumulative releases), 0 under riscv-ours.
func BenchmarkFigure15WRCAtomicsCurr(b *testing.B) {
	benchFamily(b, tricheck.WRC, tricheck.Stack{
		Mapping: tricheck.RISCVAtomicsIntuitive, Model: tricheck.NMM(tricheck.Curr)})
}

func BenchmarkFigure15WRCAtomicsOurs(b *testing.B) {
	benchFamily(b, tricheck.WRC, tricheck.Stack{
		Mapping: tricheck.RISCVAtomicsRefined, Model: tricheck.NMM(tricheck.Ours)})
}

// Figure 15, panel 2: mp and sb never show bugs; strictness shrinks from
// curr to ours (roach motel).
func BenchmarkFigure15MPAtomicsCurr(b *testing.B) {
	benchFamily(b, tricheck.MP, tricheck.Stack{
		Mapping: tricheck.RISCVAtomicsIntuitive, Model: tricheck.NMM(tricheck.Curr)})
}

func BenchmarkFigure15MPAtomicsOurs(b *testing.B) {
	benchFamily(b, tricheck.MP, tricheck.Stack{
		Mapping: tricheck.RISCVAtomicsRefined, Model: tricheck.NMM(tricheck.Ours)})
}

func BenchmarkFigure15SBBaseCurr(b *testing.B) {
	benchFamily(b, tricheck.SB, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)})
}

// Figure 15, panel 3: iriw — 4 bugs on Base riscv-curr nMCA models.
func BenchmarkFigure15IRIWBaseCurr(b *testing.B) {
	benchFamily(b, tricheck.IRIW, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)})
}

func BenchmarkFigure15IRIWBaseOurs(b *testing.B) {
	benchFamily(b, tricheck.IRIW, tricheck.Stack{
		Mapping: tricheck.RISCVBaseRefined, Model: tricheck.NMM(tricheck.Ours)})
}

// Section 5.1.3 / Figure 15 companions: the same-address coherence
// families on the R→R-relaxing model.
func BenchmarkSection513CoRR(b *testing.B) {
	benchFamily(b, tricheck.CoRR, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.RMMModel(tricheck.Curr)})
}

func BenchmarkSection513CORSDWI(b *testing.B) {
	benchFamily(b, tricheck.CORSDWI, tricheck.Stack{
		Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.RMMModel(tricheck.Curr)})
}

// BenchmarkHeadline1701 regenerates the abstract's headline: the full
// 1,701-test suite on the Base+A riscv-curr nMM stack — 144 forbidden
// outcomes observed.
func BenchmarkHeadline1701(b *testing.B) {
	eng := tricheck.NewEngine()
	suite := tricheck.PaperSuite()
	s := tricheck.Stack{Mapping: tricheck.RISCVAtomicsIntuitive, Model: tricheck.NMM(tricheck.Curr)}
	var bugs int
	for i := 0; i < b.N; i++ {
		res, err := eng.RunSuite(suite, s, 0)
		if err != nil {
			b.Fatal(err)
		}
		bugs = res.Tally.SpecifiedBugs
	}
	b.ReportMetric(float64(bugs), "headline-bugs")
}

// BenchmarkFigure15Aggregate runs the full Figure 15 matrix for one litmus
// family across all 28 stacks (the bottom-right chart of the figure).
func BenchmarkFigure15Aggregate(b *testing.B) {
	eng := tricheck.NewEngine()
	tests := tricheck.WRC.Generate()
	var stacks []tricheck.Stack
	for _, base := range []bool{true, false} {
		for _, v := range []tricheck.Variant{tricheck.Curr, tricheck.Ours} {
			stacks = append(stacks, tricheck.RISCVStacks(base, v)...)
		}
	}
	var total int
	for i := 0; i < b.N; i++ {
		results, err := eng.Sweep(tests, stacks, 0)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range results {
			total += r.Tally.Bugs
		}
	}
	b.ReportMetric(float64(total), "total-bugs-all-stacks")
}

// Tables 1–3: compilation throughput of the full suite under each mapping.
func benchCompile(b *testing.B, m *tricheck.Mapping) {
	b.Helper()
	suite := tricheck.PaperSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range suite {
			if _, err := tricheck.CompileTest(m, t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(suite)), "tests-compiled")
}

func BenchmarkTable1PowerLeadingSync(b *testing.B) { benchCompile(b, tricheck.PowerLeadingSync) }
func BenchmarkTable2BaseIntuitive(b *testing.B)    { benchCompile(b, tricheck.RISCVBaseIntuitive) }
func BenchmarkTable2BaseRefined(b *testing.B)      { benchCompile(b, tricheck.RISCVBaseRefined) }
func BenchmarkTable3AtomicsIntuitive(b *testing.B) { benchCompile(b, tricheck.RISCVAtomicsIntuitive) }
func BenchmarkTable3AtomicsRefined(b *testing.B)   { benchCompile(b, tricheck.RISCVAtomicsRefined) }

// Figure 7 (Table 7): one test across the whole model matrix.
func BenchmarkTable7ModelMatrix(b *testing.B) {
	eng := tricheck.NewEngine()
	tst := tricheck.WRC.Instantiate([]tricheck.Order{
		tricheck.Rlx, tricheck.Rlx, tricheck.Rel, tricheck.Acq, tricheck.Rlx})
	var bugs int
	for i := 0; i < b.N; i++ {
		bugs = 0
		for _, m := range tricheck.Models(tricheck.Curr) {
			r, err := eng.Run(tst, tricheck.Stack{Mapping: tricheck.RISCVBaseIntuitive, Model: m})
			if err != nil {
				b.Fatal(err)
			}
			if r.Verdict == tricheck.Bug {
				bugs++
			}
		}
	}
	b.ReportMetric(float64(bugs), "buggy-models") // 3: nWR, nMM, A9like
}

// Section 7: the compiler-mapping audit (trailing-sync counterexamples).
func BenchmarkSection7TrailingSyncAudit(b *testing.B) {
	eng := tricheck.NewEngine()
	tests := tricheck.RWC.Generate()
	s := tricheck.Stack{Mapping: tricheck.PowerTrailingSync, Model: tricheck.PowerA9()}
	var bugs int
	for i := 0; i < b.N; i++ {
		res, err := eng.RunSuite(tests, s, 0)
		if err != nil {
			b.Fatal(err)
		}
		bugs = res.Tally.Bugs
	}
	b.ReportMetric(float64(bugs), "counterexamples")
}

// Verification-farm throughput over the paper suite (tests/sec), cold
// vs warm memo cache. The warm benchmark's jobs are all cache hits, so
// it measures pure farm/cache overhead; `executions` should read 0.
func BenchmarkFarmColdSweep(b *testing.B) {
	suite := tricheck.PaperSuite()
	s := tricheck.Stack{Mapping: tricheck.RISCVAtomicsIntuitive, Model: tricheck.NMM(tricheck.Curr)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := tricheck.NewEngine() // fresh: every job executes
		if _, err := eng.RunSuite(suite, s, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(suite)*b.N)/b.Elapsed().Seconds(), "tests/sec")
}

func BenchmarkFarmWarmSweep(b *testing.B) {
	suite := tricheck.PaperSuite()
	s := tricheck.Stack{Mapping: tricheck.RISCVAtomicsIntuitive, Model: tricheck.NMM(tricheck.Curr)}
	eng := tricheck.NewEngine()
	eng.EnableMemo(0)
	if _, err := eng.RunSuite(suite, s, 0); err != nil { // prime the cache
		b.Fatal(err)
	}
	primed := eng.Executions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSuite(suite, s, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(suite)*b.N)/b.Elapsed().Seconds(), "tests/sec")
	b.ReportMetric(float64(eng.Executions()-primed), "executions")
}

// Component benchmarks: the two expensive toolflow steps in isolation.
func BenchmarkStep1C11Evaluation(b *testing.B) {
	tst := tricheck.IRIW.Instantiate([]tricheck.Order{
		tricheck.SC, tricheck.SC, tricheck.SC, tricheck.SC, tricheck.SC, tricheck.SC})
	eng := tricheck.NewEngine()
	for i := 0; i < b.N; i++ {
		if _, err := eng.HLL(tst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStep3UspecEvaluation(b *testing.B) {
	tst := tricheck.IRIW.Instantiate([]tricheck.Order{
		tricheck.SC, tricheck.SC, tricheck.SC, tricheck.SC, tricheck.SC, tricheck.SC})
	prog, err := tricheck.CompileTest(tricheck.RISCVBaseIntuitive, tst)
	if err != nil {
		b.Fatal(err)
	}
	m := tricheck.NMM(tricheck.Curr)
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: eager (curr) vs lazy (ours) release implementations on the
// Figure 13 test — the design choice Section 5.2.3 argues about.
func BenchmarkAblationLazyRelease(b *testing.B) {
	eng := tricheck.NewEngine()
	tst := tricheck.MPAddrDep.Instantiate([]tricheck.Order{
		tricheck.Rel, tricheck.Rel, tricheck.Rlx, tricheck.Acq})
	var strictCurr, strictOurs int
	for i := 0; i < b.N; i++ {
		r1, err := eng.Run(tst, tricheck.Stack{Mapping: tricheck.RISCVAtomicsIntuitive, Model: tricheck.NMM(tricheck.Curr)})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := eng.Run(tst, tricheck.Stack{Mapping: tricheck.RISCVAtomicsRefined, Model: tricheck.NMM(tricheck.Ours)})
		if err != nil {
			b.Fatal(err)
		}
		strictCurr, strictOurs = len(r1.StrictOutcomes), len(r2.StrictOutcomes)
	}
	b.ReportMetric(float64(strictCurr), "strict-outcomes-eager")
	b.ReportMetric(float64(strictOurs), "strict-outcomes-lazy")
}

// Synthesis benchmarks: cold enumeration of the critical-cycle space
// (every shape lowered, probed for degeneracy and deduplicated) and a
// warm memoized sweep of the synthesized suite — the two costs a
// synthesized corpus adds on top of the shipped one.
func BenchmarkSynthEnumerateCold(b *testing.B) {
	var shapes int
	for i := 0; i < b.N; i++ {
		res, err := tricheck.SynthesizeShapes(tricheck.SynthOptions{MaxLen: 6, Deps: true})
		if err != nil {
			b.Fatal(err)
		}
		shapes = len(res)
	}
	b.ReportMetric(float64(shapes), "shapes")
	b.ReportMetric(float64(shapes*b.N)/b.Elapsed().Seconds(), "shapes/sec")
}

func synthSweepSuite(b *testing.B) []*tricheck.Test {
	b.Helper()
	res, err := tricheck.SynthesizeShapes(tricheck.SynthOptions{MaxLen: 5})
	if err != nil {
		b.Fatal(err)
	}
	var tests []*tricheck.Test
	for _, s := range tricheck.SynthNovelOnly(res) {
		tests = append(tests, s.Shape.Generate()...)
	}
	return tests
}

func BenchmarkSynthColdSweep(b *testing.B) {
	tests := synthSweepSuite(b)
	s := tricheck.Stack{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := tricheck.NewEngine() // fresh: every job executes
		if _, err := eng.RunSuite(tests, s, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tests)*b.N)/b.Elapsed().Seconds(), "tests/sec")
}

func BenchmarkSynthWarmSweep(b *testing.B) {
	tests := synthSweepSuite(b)
	s := tricheck.Stack{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NMM(tricheck.Curr)}
	eng := tricheck.NewEngine()
	eng.EnableMemo(0)
	if _, err := eng.RunSuite(tests, s, 0); err != nil { // prime the cache
		b.Fatal(err)
	}
	primed := eng.Executions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSuite(tests, s, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tests)*b.N)/b.Elapsed().Seconds(), "tests/sec")
	b.ReportMetric(float64(eng.Executions()-primed), "executions")
}

// Operational second-opinion backend (backend=opsim|both): the
// enumeration driver's exhaustive-interleaving costs, and the full
// cross-check sweep overhead on top of the axiomatic path. The
// committed BENCH_8.json and BENCH_9.json carry them and CI's delta
// table reports them, but the perf gate's -match
// (BenchmarkFigure15|BenchmarkFarm) leaves them out: report-only.
func benchOpsimEnumerate(b *testing.B, shape *tricheck.Shape, m *tricheck.Model) {
	b.Helper()
	test := shape.Generate()[0]
	prog, err := tricheck.CompileTest(tricheck.RISCVBaseIntuitive, test)
	if err != nil {
		b.Fatal(err)
	}
	var states, outcomes int
	for i := 0; i < b.N; i++ {
		sim, err := opsim.ForConfig(m.Config, prog)
		if err != nil {
			b.Fatal(err)
		}
		outcomes = len(sim.Outcomes())
		states = sim.StateCount()
	}
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(outcomes), "outcomes")
}

// BenchmarkOpsimEnumerateSBTSO: the TSO machine (store buffers +
// forwarding) on a store-buffering test — the canonical relaxed case.
func BenchmarkOpsimEnumerateSBTSO(b *testing.B) {
	benchOpsimEnumerate(b, tricheck.SB, tricheck.TSOModel())
}

// BenchmarkOpsimEnumerateIRIWNWR: the nMCA simulator on iriw, the
// widest shipped shape — per-observer visibility orders blow up the
// interleaving space, making this the driver's worst case.
func BenchmarkOpsimEnumerateIRIWNWR(b *testing.B) {
	benchOpsimEnumerate(b, tricheck.IRIW, tricheck.NWRModel(tricheck.Curr))
}

// BenchmarkOpsimBothSweepSB: a backend=both farm sweep of the sb family
// over the opsim-supported curr machines — the axiomatic sweep plus the
// operational second opinion and the observable-set diff.
func BenchmarkOpsimBothSweepSB(b *testing.B) {
	tests := tricheck.SB.Generate()
	stacks := []tricheck.Stack{
		{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.SCProofModel()},
		{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.WRModel(tricheck.Curr)},
		{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.TSOModel()},
		{Mapping: tricheck.RISCVBaseIntuitive, Model: tricheck.NWRModel(tricheck.Curr)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := tricheck.NewEngine() // fresh: every job executes both backends
		results, err := eng.SweepStreamBackend(context.Background(), tests, stacks, 0, tricheck.BackendBoth, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, sr := range results {
			if sr.Tally.Divergent != 0 {
				b.Fatalf("cross-check divergence on %s", sr.Stack.Name())
			}
		}
	}
	b.ReportMetric(float64(len(tests)*len(stacks)*b.N)/b.Elapsed().Seconds(), "jobs/sec")
}
