// Package uspec implements the microarchitecture-level half of TriCheck:
// µspec-style models of RISC-V (and Power/ARMv7) implementations, evaluated
// by building a µhb graph per execution candidate and testing acyclicity
// (the Check-tool decision procedure; see internal/uhb).
//
// The seven RISC-V models reproduce the paper's Table/Figure 7. All derive
// from a Rocket-chip-like in-order pipeline and differ in which program
// orders they relax and how store visibility propagates:
//
//	model   relaxes            store atomicity
//	WR      W→R                MCA   (single global visibility point)
//	rWR     W→R                rMCA  (store-buffer forwarding to own core)
//	rWM     W→R, W→W           rMCA
//	rMM     W→R, W→W, R→M      rMCA  (incl. same-address R→R — the CoRR bug)
//	nWR     W→R                nMCA  (per-core visibility; shared store buffer)
//	nMM     W→R, W→W, R→M      nMCA
//	A9like  W→R, W→W, R→M      nMCA via write-back caches + a non-stalling
//	                           directory (Section 4.3 point 7)
//
// Each model exists in two MCM variants: Curr implements the ordering
// semantics of the RISC-V spec the paper analysed (non-cumulative fences,
// eager non-cumulative releases, store atomicity implied by aq+rl);
// Ours implements the paper's proposed refinements (cumulative lw/hw
// fences, lazy cumulative releases that synchronize only with acquires,
// the .sc store-atomicity bit, and mandatory same-address load→load
// ordering).
//
// Evaluation runs on a two-tier µhb core: the execution-independent part
// of a model's obligations (pipeline/path order, unconditional preserved
// program order, dependencies, non-cumulative fence and AMO-annotation
// edges) is compiled once per (program, model) into a uhb.Skeleton, and
// each candidate execution only adds its dynamic edges (coherence,
// reads-from/from-reads, same-address refinements, cumulative closures),
// decided on the skeleton's port closure, a uhb.Closure — see Prepared.
// Diagnostics
// (Explain, witness graphs, DOT) materialize one execution's whole graph
// into a single skeleton via BuildGraph and render labels and reasons
// from it; the verdict path never formats any.
package uspec

import (
	"fmt"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// Variant selects the ISA MCM semantics a model implements.
type Variant uint8

// MCM variants.
const (
	// Curr is the RISC-V MCM as specified at the time of the paper
	// ("riscv-curr" in Figure 15).
	Curr Variant = iota
	// Ours is the paper's refined MCM proposal ("riscv-ours").
	Ours
)

// String names the variant like the paper's figures do.
func (v Variant) String() string {
	if v == Ours {
		return "riscv-ours"
	}
	return "riscv-curr"
}

// Config is a µspec model: an ordering-relaxation profile plus the MCM
// variant governing fence/AMO interpretation.
type Config struct {
	// Name is the Table 7 model name.
	Name string
	// Description summarises the microarchitecture.
	Description string
	// RelaxWR permits a younger load to perform before an older store is
	// visible (a store buffer). All Table 7 models set it.
	RelaxWR bool
	// Forwarding permits a load to read its own thread's store from the
	// store buffer before the store is visible elsewhere (rMCA).
	Forwarding bool
	// RelaxWW permits different-address stores to leave the store buffer
	// out of order.
	RelaxWW bool
	// RelaxRR permits loads to perform out of order with earlier loads and
	// (different-address) earlier-load→store pairs (the paper's R→M).
	RelaxRR bool
	// OrderSameAddrRR forces same-address loads to perform in program
	// order even when RelaxRR is set (the riscv-ours §5.1.3 requirement).
	OrderSameAddrRR bool
	// NMCA gives every store one visibility point per core (non-multiple-
	// copy-atomic stores).
	NMCA bool
	// CacheProtocol routes store visibility through coherence-protocol
	// events (GetM then per-core invalidation/forward), the A9like
	// topology. ISA-visible behaviour matches NMCA.
	CacheProtocol bool
	// RespectDeps enforces syntactic address/data/control dependencies
	// (true for all paper models; false models an Alpha-like machine for
	// the Section 4.1.3 discussion).
	RespectDeps bool
	// Variant selects riscv-curr or riscv-ours semantics.
	Variant Variant
}

// Model is an evaluable microarchitecture model. Models returned by the
// builtin registry (Models, ModelByName, the named constructors) are
// shared and immutable: to customize one, copy its Config, edit the
// copy, and wrap it with New.
type Model struct {
	Config
}

// New returns a model for the given configuration. It does not validate;
// use Config.Model (or ParseSpec) for checked construction.
func New(cfg Config) *Model { return &Model{Config: cfg} }

// FullName is "<name>/<variant>".
func (m *Model) FullName() string { return fmt.Sprintf("%s/%s", m.Name, m.Variant) }

// The builtin models are data, not code: each constructor below is a
// lookup of a shipped spec file (specs/<name>.<variant>.uspec) parsed
// into the registry once at init. See spec.go for the format and
// registry.go for the registry.

// WR is Table 7's strongest model: FIFO store buffer, no forwarding, MCA.
func WR(v Variant) *Model { return mustBuiltin("WR", v) }

// RWR adds store-buffer forwarding (rMCA).
func RWR(v Variant) *Model { return mustBuiltin("rWR", v) }

// RWM additionally drains the store buffer out of order.
func RWM(v Variant) *Model { return mustBuiltin("rWM", v) }

// RMM additionally lets loads perform out of order; under Curr this
// includes same-address load pairs (the Section 5.1.3 bug), under Ours
// same-address pairs stay ordered.
func RMM(v Variant) *Model { return mustBuiltin("rMM", v) }

// NWR is rWR with shared store buffers: nMCA visibility.
func NWR(v Variant) *Model { return mustBuiltin("nWR", v) }

// NMM is rMM with shared store buffers: nMCA visibility.
func NMM(v Variant) *Model { return mustBuiltin("nMM", v) }

// A9like reaches nMM's ISA-visible relaxations through write-back caches
// and a non-stalling directory protocol instead of shared store buffers
// (Section 4.3 point 7).
func A9like(v Variant) *Model { return mustBuiltin("A9like", v) }

// Models returns the seven Table 7 models for the given MCM variant, in the
// paper's strongest-to-weakest presentation order. The models are the
// shared registry instances, built once.
func Models(v Variant) []*Model { return builtins.Table7(v) }

// ModelByName finds a builtin model by name for the given variant, or
// nil. The Table 7 names exist under both variants; the companions
// (PowerA9, PowerA9-ldld-fixed, TSO, SC, AlphaLike) only under Curr.
func ModelByName(name string, v Variant) *Model { return builtins.Model(name, v) }

// PowerA9 models a Power/ARMv7 Cortex-A9-like machine for the Section 7
// compiler-mapping study: nMCA, all program orders relaxed including
// same-address load pairs (the ARM load→load hazard of Figure 1), with
// syntactic dependencies respected.
func PowerA9() *Model { return mustBuiltin("PowerA9", Curr) }

// PowerA9Fixed is PowerA9 with the ARM load→load hazard repaired in
// hardware (same-address loads ordered), for the Figure 1/2 discussion.
func PowerA9Fixed() *Model { return mustBuiltin("PowerA9-ldld-fixed", Curr) }

// TSO models an x86-TSO-like machine: a forwarding store buffer (W→R
// relaxed, rMCA) with every other program order preserved. It matches rWR
// in relaxation profile and exists as a named model for the x86 mapping
// study; on x86, fences are rare (mfence only after SC stores) because TSO
// itself provides acquire/release.
func TSO() *Model { return mustBuiltin("TSO", Curr) }

// SCProof is an ablation model with no relaxations at all: a sequentially
// consistent in-order machine. Useful as a sanity baseline (it can never be
// buggy, only overly strict).
func SCProof() *Model { return mustBuiltin("SC", Curr) }

// AlphaLike is nMM without dependency ordering — the machine the Linux
// read_barrier_depends discussion in Section 4.1.3 worries about.
func AlphaLike() *Model { return mustBuiltin("AlphaLike", Curr) }

// TableRow describes one row of the Table 7 matrix for rendering.
type TableRow struct {
	Name                     string
	WR, WW, RM               bool // relaxed program orders
	MCA, RMCA, NMCA          bool // store atomicity
	SameAddrRRRelaxed        bool
	ViaCacheProtocol, NoDeps bool
}

// Table7 returns the model matrix of Figure 7 for rendering and tests.
func Table7(v Variant) []TableRow {
	var rows []TableRow
	for _, m := range Models(v) {
		rows = append(rows, TableRow{
			Name:              m.Name,
			WR:                m.RelaxWR,
			WW:                m.RelaxWW,
			RM:                m.RelaxRR,
			MCA:               !m.Forwarding && !m.NMCA,
			RMCA:              m.Forwarding && !m.NMCA,
			NMCA:              m.NMCA,
			SameAddrRRRelaxed: m.RelaxRR && !m.OrderSameAddrRR,
			ViaCacheProtocol:  m.CacheProtocol,
			NoDeps:            !m.RespectDeps,
		})
	}
	return rows
}

// Result is a model evaluation over a program: which candidate outcomes are
// observable. The results of one EvaluateAll share one Outcomes slice, so
// a Result is read-only.
type Result struct {
	// Outcomes lists the candidate outcomes by interned id, in the order
	// the enumeration first reached them. It depends only on the program,
	// so the results of one EvaluateAll share it.
	Outcomes []mem.Outcome
	// Observed lists, ascending, the ids of the outcomes with at least one
	// acyclic µhb graph.
	Observed []int
	// All and Observable are the map view of Outcomes and Observed. Only
	// the one-model Evaluate builds them; EvaluateAll leaves them nil,
	// because step 4 (core.compare) decides which maps a sweep keeps.
	All, Observable map[mem.Outcome]bool
	// Candidates counts enumerated executions; Graphs counts µhb
	// acyclicity checks actually run — candidate verdicts on the
	// two-tier core (early-exit per outcome keeps this below Candidates).
	Candidates, Graphs int
}

// Evaluate computes the observable outcome set of program p on the model.
// It runs on the two-tier verdict path: the static skeleton and its port
// closure are built once and every candidate execution is decided on them
// (see Prepared).
func (m *Model) Evaluate(p *isa.Program) (*Result, error) {
	pr := m.Prepare(p)
	defer pr.Close()
	return pr.Evaluate()
}

// Explain returns a human-readable verdict for an outcome: either an
// acyclic witness summary or the µhb cycle forbidding the last candidate.
func (m *Model) Explain(p *isa.Program, want mem.Outcome) (observable bool, explanation string, err error) {
	explanation = "outcome is not a candidate final state"
	e := mem.Enumerate(p.Mem(), func(x *mem.Execution) bool {
		if x.OutcomeOf() != want {
			return true
		}
		g := m.BuildGraph(p, x)
		if cycle := g.FindCycle(); cycle != nil {
			explanation = fmt.Sprintf("forbidden on %s: cycle %s", m.FullName(), g.ExplainCycle(cycle))
			return true
		}
		observable = true
		explanation = fmt.Sprintf("observable on %s via execution %s", m.FullName(), x)
		return false
	})
	if e != nil && e != mem.ErrStopped {
		return false, "", e
	}
	return observable, explanation, nil
}

// ObservableGraph returns a µhb graph (preferring an acyclic witness) for
// the outcome, for DOT export and debugging; found is false if the outcome
// is not a candidate.
func (m *Model) ObservableGraph(p *isa.Program, want mem.Outcome) (g *Graph, found bool, err error) {
	e := mem.Enumerate(p.Mem(), func(x *mem.Execution) bool {
		if x.OutcomeOf() != want {
			return true
		}
		cand := m.BuildGraph(p, x)
		g, found = cand, true
		return !cand.Acyclic() // stop at the first acyclic witness
	})
	if e != nil && e != mem.ErrStopped {
		return nil, false, e
	}
	return g, found, nil
}
