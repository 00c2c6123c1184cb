package server

import (
	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/report"
)

// The service's wire format lives in the versioned tricheck/api package,
// which both this server and the Go client import. This file owns only
// the core→wire conversions.

func tallyJSON(t core.Tally) api.TallyJSON {
	return api.TallyJSON{
		Bugs:          t.Bugs,
		Strict:        t.Strict,
		Equivalent:    t.Equivalent,
		Divergent:     t.Divergent,
		Total:         t.Total,
		SpecifiedBugs: t.SpecifiedBugs,
	}
}

// divergenceJSON converts a cross-check diff into its wire payload.
func divergenceJSON(op *core.OpsimMemo, uhbObservable []string) *api.Divergence {
	d := &api.Divergence{
		UhbObservable:   uhbObservable,
		OpsimObservable: outcomeStrings(op.Observable),
		UhbOnly:         outcomeStrings(op.UhbOnly),
		OpsimOnly:       outcomeStrings(op.OpsimOnly),
		WitnessOutcome:  string(op.WitnessOutcome),
		Witness:         op.Witness,
	}
	return d
}

func outcomeStrings[T ~string](os []T) []string {
	if os == nil {
		return nil
	}
	out := make([]string, len(os))
	for i, o := range os {
		out[i] = string(o)
	}
	return out
}

// summarize builds the terminal summary record from the sweep's results,
// the tracker that observed its stream, and the engine ledger's totals.
func summarize(results []*core.SuiteResult, tr *report.Tracker, trace string, backend core.Backend, cov api.CoverageTotals) *api.SummaryRecord {
	sum := &api.SummaryRecord{
		Type:           "summary",
		Trace:          trace,
		Done:           tr.Done,
		Total:          tr.Total,
		Bugs:           tr.Bugs,
		Strict:         tr.Strict,
		Equivalent:     tr.Equivalent,
		Divergent:      tr.Divergent,
		Cached:         tr.Cached,
		ElapsedSeconds: tr.Elapsed().Seconds(),
		TestsPerSecond: tr.Rate(),
		Coverage:       cov,
	}
	if backend != core.BackendUHB {
		sum.Backend = backend.String()
	}
	for _, sr := range results {
		ss := api.StackSummary{
			Stack:        sr.Stack.Name(),
			Tally:        tallyJSON(sr.Tally),
			OpsimSkipped: opsimSkipNote(sr),
		}
		for _, fam := range sr.FamilyNames() {
			ss.Families = append(ss.Families, api.FamilyTally{Family: fam, TallyJSON: tallyJSON(*sr.ByFamily[fam])})
		}
		sum.Stacks = append(sum.Stacks, ss)
	}
	return sum
}
