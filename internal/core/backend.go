// Backend selection: the engine can produce verdicts from the axiomatic
// µhb models (uhb), from the operational simulators (opsim), or from both
// with a per-(test, stack) cross-check that reports any disagreement
// between the two semantics as a Divergence verdict.
package core

import (
	"fmt"

	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/opsim"
)

// Backend selects which verdict engine(s) a run uses.
type Backend uint8

const (
	// BackendUHB is the default axiomatic µhb engine.
	BackendUHB Backend = iota
	// BackendOpsim replaces the µhb evaluation with operational
	// enumeration. Only opsim-supported configs are allowed (see
	// ValidateBackendStacks).
	BackendOpsim
	// BackendBoth runs uhb as the verdict source and opsim as a second
	// opinion, diffing the observable sets; a non-empty symmetric
	// difference yields the Divergence verdict.
	BackendBoth
)

// String returns the wire spelling ("uhb", "opsim", "both").
func (b Backend) String() string {
	switch b {
	case BackendOpsim:
		return "opsim"
	case BackendBoth:
		return "both"
	default:
		return "uhb"
	}
}

// ParseBackend parses the wire spelling; the empty string selects the
// default uhb backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "uhb":
		return BackendUHB, nil
	case "opsim":
		return BackendOpsim, nil
	case "both":
		return BackendBoth, nil
	default:
		return BackendUHB, fmt.Errorf("unknown backend %q (want uhb, opsim or both)", s)
	}
}

// keySuffix tags memo keys so cached results from one backend never
// masquerade as another's. The uhb suffix is empty to keep existing
// snapshots and keys valid.
func (b Backend) keySuffix() string {
	switch b {
	case BackendOpsim:
		return "+opsim"
	case BackendBoth:
		return "+both"
	default:
		return ""
	}
}

// JobKeyBackend is JobKey tagged with the backend (identical to JobKey
// for BackendUHB).
func JobKeyBackend(t *litmus.Test, s Stack, b Backend) string {
	return JobKey(t, s) + b.keySuffix()
}

// ValidateBackendStacks checks that every stack's model is within the
// chosen backend's capabilities. Only BackendOpsim hard-fails on an
// unsupported config — BackendBoth degrades per-job to a skip note, and
// BackendUHB supports everything.
func ValidateBackendStacks(b Backend, stacks []Stack) error {
	if b != BackendOpsim {
		return nil
	}
	for _, s := range stacks {
		if err := opsim.Supports(s.Model.Config); err != nil {
			return err
		}
	}
	return nil
}

// OpsimMemo is the operational side-channel of a verdict: the enumerated
// outcome set and, under BackendBoth, the cross-check diff against the
// µhb observable set plus a trace witness for one divergent outcome.
type OpsimMemo struct {
	// Observable is the operationally reachable outcome set (sorted).
	Observable []mem.Outcome `json:"observable,omitempty"`
	// UhbOnly lists outcomes the µhb model observes that the simulator
	// never reaches (sorted; BackendBoth only).
	UhbOnly []mem.Outcome `json:"uhb_only,omitempty"`
	// OpsimOnly lists outcomes the simulator reaches that the µhb model
	// forbids (sorted; BackendBoth only).
	OpsimOnly []mem.Outcome `json:"opsim_only,omitempty"`
	// WitnessOutcome is the divergent outcome the witness below reaches.
	WitnessOutcome mem.Outcome `json:"witness_outcome,omitempty"`
	// Witness is an operational interleaving reaching WitnessOutcome —
	// concrete evidence for one side of the divergence.
	Witness []string `json:"witness,omitempty"`
	// States counts distinct machine configurations the simulator's
	// Outcomes explored (diagnostics). Outcomes runs a partial-order
	// reduction, so a snapshot written before it holds larger counts for
	// the same verdicts and outcome sets.
	States int `json:"states,omitempty"`
	// Skipped carries the capability reason when BackendBoth could not
	// run the operational side for this stack's config.
	Skipped string `json:"skipped,omitempty"`
}

// Divergent reports whether the cross-check found a disagreement.
func (o *OpsimMemo) Divergent() bool {
	return o != nil && (len(o.UhbOnly) > 0 || len(o.OpsimOnly) > 0)
}

// crossCheck is the BackendBoth half of step 4: it diffs the µhb
// observable set against the simulator's reachable set out into op's
// symmetric difference and reports whether the two disagree. When the
// simulator reaches an outcome the µhb model forbids, op also carries an
// interleaving witness for it — a concrete execution the axiomatic side
// claims impossible. (A uhb-only outcome has no operational witness by
// definition.)
func crossCheck(op *OpsimMemo, observable, out map[mem.Outcome]bool, sim opsim.Enumerator) bool {
	for o := range observable {
		if !out[o] {
			op.UhbOnly = append(op.UhbOnly, o)
		}
	}
	for o := range out {
		if !observable[o] {
			op.OpsimOnly = append(op.OpsimOnly, o)
		}
	}
	sortOutcomes(op.UhbOnly)
	sortOutcomes(op.OpsimOnly)
	if len(op.OpsimOnly) > 0 {
		op.WitnessOutcome = op.OpsimOnly[0]
		op.Witness = sim.Trace(op.WitnessOutcome)
	}
	return op.Divergent()
}

// sortedOutcomeSet flattens an outcome set into a sorted slice.
func sortedOutcomeSet(set map[mem.Outcome]bool) []mem.Outcome {
	out := make([]mem.Outcome, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sortOutcomes(out)
	return out
}
