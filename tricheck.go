// Package tricheck is the public API of this TriCheck reproduction: a
// full-stack memory consistency model verification framework spanning the
// high-level language (C11), compiler mapping, ISA and microarchitecture
// layers (Trippel et al., "TriCheck: Memory Model Verification at the
// Trisection of Software, Hardware, and ISA", ASPLOS 2017).
//
// The facade re-exports the pieces a user composes:
//
//   - litmus tests and the Figure 5 template generator (internal/litmus),
//   - the C11 axiomatic model (internal/c11),
//   - compiler mappings, Tables 1–3 (internal/compile),
//   - µspec microarchitecture models, Table 7 (internal/uspec),
//   - the four-step verification engine (internal/core).
//
// Quick start:
//
//	eng := tricheck.NewEngine()
//	test := tricheck.WRC.Instantiate([]tricheck.Order{
//	    tricheck.Rlx, tricheck.Rlx, tricheck.Rel, tricheck.Acq, tricheck.Rlx})
//	res, err := eng.Run(test, tricheck.Stack{
//	    Mapping: tricheck.RISCVBaseIntuitive,
//	    Model:   tricheck.NMM(tricheck.Curr),
//	})
//	// res.Verdict == tricheck.Bug: the Figure 3 outcome is forbidden by
//	// C11 yet observable on an nMCA RISC-V implementation.
package tricheck

import (
	"io"

	"tricheck/api"
	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/core"
	"tricheck/internal/corpus"
	"tricheck/internal/cover"
	"tricheck/internal/farm"
	"tricheck/internal/isa"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/report"
	"tricheck/internal/synth"
	"tricheck/internal/uspec"
)

// Core engine types.
type (
	// Engine runs the four-step toolflow with HLL caching.
	Engine = core.Engine
	// Stack pairs a compiler mapping with a µspec model.
	Stack = core.Stack
	// Verdict classifies a test result (Bug / OverlyStrict / Equivalent).
	Verdict = core.Verdict
	// TestResult is the per-test full-stack verdict.
	TestResult = core.TestResult
	// SuiteResult aggregates a suite run.
	SuiteResult = core.SuiteResult
	// Tally counts verdicts.
	Tally = core.Tally
)

// Verdict values.
const (
	Equivalent   = core.Equivalent
	OverlyStrict = core.OverlyStrict
	Bug          = core.Bug
	// Divergence reports a backend=both cross-check disagreement: the
	// axiomatic µhb model and the operational simulator computed
	// different observable-outcome sets for the same (test, stack).
	Divergence = core.Divergence
)

// Backend selects which verdict engine(s) a sweep runs. The µhb
// axiomatic evaluator is the reference backend; the operational
// simulators (internal/opsim) are the second opinion. BackendBoth runs
// both and cross-checks their observable sets, yielding Divergence
// verdicts on disagreement.
type Backend = core.Backend

// Backend values.
const (
	BackendUHB   = core.BackendUHB
	BackendOpsim = core.BackendOpsim
	BackendBoth  = core.BackendBoth
)

// ParseBackend parses a backend selector ("", "uhb", "opsim", "both").
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// ValidateBackendStacks checks a backend against a stack selection:
// backend=opsim hard-fails when any stack's µspec config has no
// operational machine (backend=both skips those per-result instead).
func ValidateBackendStacks(b Backend, stacks []Stack) error {
	return core.ValidateBackendStacks(b, stacks)
}

// NewEngine returns a fresh verification engine.
func NewEngine() *Engine { return core.NewEngine() }

// RISCVStacks builds the Figure 15 stack matrix for one ISA flavour and
// MCM version.
func RISCVStacks(base bool, v Variant) []Stack { return core.RISCVStacks(base, v) }

// Progress is one streamed farm result (Engine.SweepStream). RunSuite
// and Sweep run on a sharded work-stealing scheduler (internal/farm);
// enabling the engine's memo cache (Engine.EnableMemo /
// LoadMemoSnapshot) makes repeated sweeps re-verify only what changed.
type Progress = core.Progress

// Observability (internal/obs wiring). Every engine sweep records into
// the process-wide metrics registry and slow-trace ring; the re-exports
// below are what the CLIs surface (tricheckd's /metrics and /v1/traces
// serve the same registry and ring over HTTP).

// JobCost is one cell of an engine's per-(test, stack) cost matrix:
// cumulative executed wall time split by toolflow phase
// (Engine.CostMatrix, the data behind `tricheck top`). An engine records
// cells only after Engine.EnableCostMatrix; `tricheck top` is the one
// frontend that calls it.
type JobCost = core.JobCost

// Verification-coverage ledger (internal/cover wiring). Every engine
// carries one (Engine.Coverage): the cost matrix, when on, says where
// the time went, the ledger says what the verification exercised — which
// axioms fired edges, owned stored edges, and witnessed forbidding
// cycles, per model, plus the per-(test, config) verdict vectors behind
// the discrimination matrix. tricheckd serves the same snapshot at
// GET /v1/coverage.
type (
	// CoverageSnapshot is a ledger's deterministic, portable JSON form —
	// the GET /v1/coverage body and the `coverage -coverage-out` /
	// `coverage diff` file format.
	CoverageSnapshot = api.CoverageSnapshot
	// CoverageDiff reports verdict flips and axiom-coverage regressions
	// between two snapshots.
	CoverageDiff = cover.DiffResult
)

// DiffCoverage compares two coverage snapshots — typically before and
// after a model edit: verdict flips on shared (test, config) vectors and
// axiom-coverage regressions on shared models.
func DiffCoverage(old, cur *CoverageSnapshot) *CoverageDiff { return cover.Diff(old, cur) }

// IncrementalStats returns the process-wide µhb incremental-engine
// counters: candidate acyclicity verdicts that reused the maintained
// topological order vs. rebuilt it from scratch.
func IncrementalStats() (reuse, rebuild uint64) { return uspec.IncrementalStats() }

// WriteMetrics writes the process metrics registry in the Prometheus
// text exposition format — what tricheckd's GET /metrics serves, and the
// -metrics-out format.
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// ErrSnapshotVersion reports a memo-cache snapshot written by an
// incompatible build (errors.Is against Engine.LoadMemoSnapshot's
// error). Treat it as a cold start: warn, continue, and let the next
// save overwrite the stale file.
var ErrSnapshotVersion = farm.ErrSnapshotVersion

// LoadMemoSnapshotLenient loads a memo-cache snapshot, tolerating the
// recoverable cases: a missing file is a silent cold start, and an
// incompatible-version snapshot warns on w and cold-starts (the next
// SaveMemoSnapshot overwrites it). Any other error is returned.
func LoadMemoSnapshotLenient(eng *Engine, path string, w io.Writer) error {
	return core.LoadMemoSnapshotLenient(eng, path, w)
}

// SelectStacks resolves the stack selectors shared by every frontend
// (tricheck, trisynth, tricheckd): isa is "base", "base+a" or "both";
// variant is "curr", "ours" or "both". Models come from the builtin
// registry, built once and shared.
func SelectStacks(isa, variant string) ([]Stack, error) {
	return core.SelectStacks(isa, variant)
}

// SelectStacksModels pairs explicit models — builtins, parsed spec
// files, or enumerated lattice configs — with the Figure 15 mapping of
// each model's variant over the selected ISA flavours.
func SelectStacksModels(isa string, models []*Model) ([]Stack, error) {
	return core.SelectStacksModels(isa, models)
}

// LoadModelFiles reads and validates µspec model spec files (the
// -model-file flag's loader).
func LoadModelFiles(paths []string) ([]*Model, error) { return core.LoadModels(paths) }

// SelectStacksFiles resolves stacks for -model-file frontends, loading
// the specs and enforcing the shared variant-exclusivity contract
// (variantSet = the -variant flag was explicitly given).
func SelectStacksFiles(isa string, modelFiles []string, variantSet bool) ([]Stack, error) {
	return core.SelectStacksFiles(isa, modelFiles, variantSet)
}

// ResolveModel finds one builtin model by name under a single-variant
// selector ("curr" or "ours"), erroring with the known model set on a
// miss.
func ResolveModel(name, variant string) (*Model, error) { return core.ResolveModel(name, variant) }

// JobKey returns the farm/cache key of one (test, stack) job under the
// default (uhb) backend.
func JobKey(t *Test, s Stack) string { return core.JobKey(t, s) }

// Corpus types (internal/corpus): an on-disk litmus corpus in the herd
// C litmus format.
type (
	// Corpus is a directory-tree litmus-test registry.
	Corpus = corpus.Corpus
	// CorpusEntry is one corpus test with provenance.
	CorpusEntry = corpus.Entry
)

// LoadCorpus reads every .litmus file under dir into a registry.
func LoadCorpus(dir string) (*Corpus, error) { return corpus.Load(dir) }

// ExportCorpus writes tests to dir as <family>/<name>.litmus files.
func ExportCorpus(dir string, tests []*Test) (int, error) { return corpus.Export(dir, tests) }

// Litmus testing types.
type (
	// Shape is a litmus-test template (Figure 5).
	Shape = litmus.Shape
	// Test is one memory-order instantiation of a shape.
	Test = litmus.Test
	// Outcome is a canonical final-state key ("r0=1; r1=0").
	Outcome = mem.Outcome
	// Order is a C11 memory order.
	Order = c11.Order
)

// The paper's litmus shapes.
var (
	MP        = litmus.MP
	SB        = litmus.SB
	WRC       = litmus.WRC
	RWC       = litmus.RWC
	IRIW      = litmus.IRIW
	CoRR      = litmus.CoRR
	CORSDWI   = litmus.CORSDWI
	LB        = litmus.LB
	ISA2      = litmus.ISA2
	MPAddrDep = litmus.MPAddrDep
)

// C11 memory orders.
const (
	NA     = c11.NA
	Rlx    = c11.Rlx
	Acq    = c11.Acq
	Rel    = c11.Rel
	AcqRel = c11.AcqRel
	SC     = c11.SC
)

// Litmus-shape synthesis (internal/synth): enumerate every critical
// cycle over {po, pos, dep, rfe, coe, fre} up to a bound and lower each
// to a Shape that expands, compiles, sweeps and exports exactly like
// the shipped ones.
type (
	// SynthOptions bounds a synthesis run (cycle length, threads,
	// locations, dependency edges).
	SynthOptions = synth.Options
	// Synthesized is one synthesized shape with its cycle provenance
	// and novelty classification.
	Synthesized = synth.Synthesized
	// SynthStats summarizes a synthesis run.
	SynthStats = synth.Stats
)

// SynthesizeShapes enumerates, lowers and deduplicates every critical
// cycle within the bounds. See internal/synth for the cycle grammar.
func SynthesizeShapes(opts SynthOptions) ([]*Synthesized, error) { return synth.Enumerate(opts) }

// SynthNovelOnly filters a synthesis run to shapes not shipped with the
// framework.
func SynthNovelOnly(in []*Synthesized) []*Synthesized { return synth.NovelOnly(in) }

// SynthShapes projects a synthesis run to its litmus templates.
func SynthShapes(in []*Synthesized) []*Shape { return synth.Shapes(in) }

// SynthSummarize tallies a synthesis run.
func SynthSummarize(in []*Synthesized) SynthStats { return synth.Summarize(in) }

// SynthFirstInstance instantiates a shape's canonical first-choice
// variant (the dedup-probe instance; one representative per shape).
func SynthFirstInstance(s *Shape) *Test { return synth.FirstChoiceInstance(s) }

// StructuralFingerprint returns the label- and value-anonymized
// canonical fingerprint of a test — the shape-level identity the
// synthesizer dedups by (NOT a memo-cache key; see litmus package docs).
func StructuralFingerprint(t *Test) string { return t.StructuralFingerprint() }

// PaperSuite generates the paper's 1,701-test evaluation suite.
func PaperSuite() []*Test { return litmus.PaperSuite() }

// PaperShapes returns the seven paper-suite shapes.
func PaperShapes() []*Shape { return litmus.PaperShapes() }

// AllShapes returns every shipped shape.
func AllShapes() []*Shape { return litmus.AllShapes() }

// ShapeByName finds a shape by name, or nil.
func ShapeByName(name string) *Shape { return litmus.ShapeByName(name) }

// Compiler mappings (Tables 1–3 and the Section 7 trailing-sync mapping).
type Mapping = compile.Mapping

var (
	RISCVBaseIntuitive    = compile.RISCVBaseIntuitive
	RISCVBaseRefined      = compile.RISCVBaseRefined
	RISCVAtomicsIntuitive = compile.RISCVAtomicsIntuitive
	RISCVAtomicsRefined   = compile.RISCVAtomicsRefined
	PowerLeadingSync      = compile.PowerLeadingSync
	PowerTrailingSync     = compile.PowerTrailingSync
	ARMv7Standard         = compile.ARMv7Standard
	ARMv7HazardFix        = compile.ARMv7HazardFix
	X86TSO                = compile.X86TSO
)

// ISAProgram is a compiled instruction-level litmus program.
type ISAProgram = isa.Program

// CompileTest lowers a litmus test through a mapping (toolflow step 2).
func CompileTest(m *Mapping, t *Test) (*ISAProgram, error) {
	return compile.Compile(m, t.Prog)
}

// Mappings returns every shipped mapping.
func Mappings() []*Mapping { return compile.Mappings() }

// MappingByName finds a mapping by name, or nil.
func MappingByName(name string) *Mapping { return compile.MappingByName(name) }

// Microarchitecture models (Table 7 and companions). A model is data: a
// declarative ModelSpec with a herd-style text format, semantic
// validation and a canonical config fingerprint; the builtins ship as
// spec files parsed once into a registry.
type (
	// Model is a µspec microarchitecture model.
	Model = uspec.Model
	// ModelConfig is a model's declarative configuration: the relaxation
	// profile, MCM variant, name and description.
	ModelConfig = uspec.Config
	// ModelSpec is the serializable form of a ModelConfig (they are the
	// same type; the spec name emphasizes the parse/emit round trip).
	ModelSpec = uspec.Spec
	// Variant selects riscv-curr or riscv-ours semantics.
	Variant = uspec.Variant
)

// MCM variants.
const (
	Curr = uspec.Curr
	Ours = uspec.Ours
)

// Table 7 model constructors.
var (
	WRModel  = uspec.WR
	RWRModel = uspec.RWR
	RWMModel = uspec.RWM
	RMMModel = uspec.RMM
	NWRModel = uspec.NWR
	NMMModel = uspec.NMM
	A9like   = uspec.A9like
)

// NMM returns the shared-store-buffer nMCA model (re-exported by its paper
// name for the quick-start example).
func NMM(v Variant) *Model { return uspec.NMM(v) }

// Models returns the seven Table 7 models for a variant.
func Models(v Variant) []*Model { return uspec.Models(v) }

// ModelByName finds a Table 7 model by name, or nil.
func ModelByName(name string, v Variant) *Model { return uspec.ModelByName(name, v) }

// PowerA9 returns the Section 7 Power/ARMv7 Cortex-A9-like model.
func PowerA9() *Model { return uspec.PowerA9() }

// PowerA9Fixed returns PowerA9 with the load→load hazard repaired.
func PowerA9Fixed() *Model { return uspec.PowerA9Fixed() }

// TSOModel returns the x86-TSO-like model (pairs with X86TSO).
func TSOModel() *Model { return uspec.TSO() }

// SCProofModel returns the no-relaxations ablation baseline.
func SCProofModel() *Model { return uspec.SCProof() }

// AlphaLike returns the dependency-free ablation model (Section 4.1.3).
func AlphaLike() *Model { return uspec.AlphaLike() }

// Declarative model specs: parse, emit, validate, fingerprint and
// enumerate microarchitecture configurations as data.

// ParseModelSpec parses and validates a model spec in the uspec text
// format (see internal/uspec/spec.go for the format reference).
func ParseModelSpec(src string) (*ModelSpec, error) { return uspec.ParseSpec(src) }

// NewModel wraps a validated configuration as an evaluable model.
func NewModel(c ModelConfig) (*Model, error) { return c.Model() }

// BuiltinModels returns every registered builtin model (Table 7 under
// both variants plus the companions), shared and immutable.
func BuiltinModels() []*Model { return uspec.Builtins().All() }

// EnumerateModelConfigs walks the full legal relaxation lattice for one
// MCM variant — every semantically distinct, validation-clean Config,
// deduplicated by config fingerprint (50 per variant).
func EnumerateModelConfigs(v Variant) []ModelConfig { return uspec.EnumerateConfigs(v) }

// ModelFingerprint returns a model's canonical config fingerprint: a
// content hash of its relaxation bits and variant, independent of its
// display name. Memo-cache stack identity builds on it.
func ModelFingerprint(m *Model) string { return m.Config.Fingerprint() }

// Reporting helpers.

// WriteFigure15 renders suite results in the paper's Figure 15 layout.
func WriteFigure15(w io.Writer, results []*SuiteResult) { report.Figure15(w, results) }

// WriteCSV renders suite results as CSV.
func WriteCSV(w io.Writer, results []*SuiteResult) { report.CSV(w, results) }

// WriteTable7 renders the µspec model matrix.
func WriteTable7(w io.Writer, v Variant) { report.Table7(w, v) }

// WriteMappingTable renders a compiler mapping like Tables 1–3.
func WriteMappingTable(w io.Writer, m *Mapping) { report.MappingTable(w, m) }

// StreamProgress drains a SweepStream event channel, writing periodic
// progress lines to w; it returns when the channel closes.
func StreamProgress(w io.Writer, events <-chan Progress, every int) {
	report.StreamProgress(w, events, every)
}
