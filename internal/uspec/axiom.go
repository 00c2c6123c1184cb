package uspec

// Axiom coverage: every µhb edge's Reason code maps to a small dense
// axiom index, so a whole evaluation's attribution fits in three uint64
// bitsets (Coverage) and folds into per-model counters without touching
// the verdict path's allocation or formatting budget.
//
// The axiom space is the base reason codes plus the fence axiom split by
// ordered access pair (RR/RW/WW/WR). Fence parameterization beyond the
// pair — predecessor/successor access classes and cumulativity level,
// bits 8–13 of the Reason — intentionally collapses: those bits describe
// *which* fence instruction fired the axiom, not which ordering axiom
// fired, and keeping the space under 64 is what makes the per-verdict
// record three register-sized ORs.

// NumAxioms is the size of the axiom coverage space: one index per base
// reason code below rFence, then the four fence pairs.
const NumAxioms = int(rFence) + 4

// axiomIndex maps a reason code to its dense axiom index. Total and
// injective on the emitted reason space: every non-fence base code maps
// to itself, and the four fence pairs take the indices above rFence
// (axiom_test.go pins the catalogue against silent aliasing).
func axiomIndex(r Reason) int {
	base := r & 0xff
	if base != rFence {
		return int(base)
	}
	return int(rFence) + int(r>>14&3)
}

// axiomBit returns the Coverage bitset bit of a reason code.
func axiomBit(r Reason) uint64 { return 1 << axiomIndex(r) }

// AxiomName returns the display name of axiom index i. Unlike
// Reason.String this never counts as a diagnostic format: it renders
// from the static catalogue, for reports, not for verdicts.
func AxiomName(i int) string {
	if i >= 0 && i < int(rFence) {
		return reasonNames[i]
	}
	return "fence-" + fencePairNames[i-int(rFence)]
}

// AxiomNames returns the full axiom catalogue in index order — the
// schema of every Coverage bitset and of the coverage ledger built on
// top of them.
func AxiomNames() []string {
	out := make([]string, NumAxioms)
	for i := range out {
		out[i] = AxiomName(i)
	}
	return out
}

// Coverage is the axiom-attribution record of one prepared evaluation:
// three bitsets indexed by axiom index, accumulated across the job's
// skeleton build and every execution candidate. Recording is three OR
// instructions per edge and per cycle hop — safe on the zero-allocation
// verdict path.
type Coverage struct {
	// Fired: axioms that demanded at least one edge, counted at emission
	// time — before Skeleton first-reason-wins dedup — so an axiom
	// whose every edge collapsed onto an earlier axiom's still counts.
	Fired uint64
	// Edges: axioms owning at least one stored edge after dedup: the
	// reason on a frozen skeleton CSR entry or a dynamic edge record
	// (those keep duplicates, so dynamic axioms own what they fire).
	Edges uint64
	// Cycle: axioms with an edge on at least one witnessing cycle — a
	// cycle that forbade a candidate execution during this evaluation.
	Cycle uint64
}
