package api

import (
	"encoding/json"
	"testing"
)

// The golden test locks JSON byte-compatibility: a record with none of
// the fields introduced alongside the backend axis must encode to
// exactly the bytes the pre-api-package server emitted (field order and
// all), so existing stream consumers and recorded fixtures keep working.

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGoldenVerdictRecord(t *testing.T) {
	got := mustMarshal(t, VerdictRecord{
		Type: "verdict", Trace: "deadbeef", Done: 3, Total: 162,
		Test: "mp[rlx,rel,acq,rlx]", Stack: "riscv-base-intuitive+TSO/riscv-curr",
		Verdict: "Equivalent", Key: "abc+def", Cached: true,
	})
	want := `{"type":"verdict","trace":"deadbeef","done":3,"total":162,` +
		`"test":"mp[rlx,rel,acq,rlx]","stack":"riscv-base-intuitive+TSO/riscv-curr",` +
		`"verdict":"Equivalent","key":"abc+def","cached":true}`
	if got != want {
		t.Errorf("verdict record bytes changed:\n got %s\nwant %s", got, want)
	}

	// specified_bug is additive omitempty: it appears only on records
	// whose designated outcome is a bug.
	got = mustMarshal(t, VerdictRecord{
		Type: "verdict", Done: 1, Total: 2, Test: "mp[rlx,rel,acq,rlx]",
		Stack: "riscv-base-intuitive+TSO/riscv-curr", Verdict: "Bug",
		Key: "abc+def", SpecifiedBug: true,
	})
	want = `{"type":"verdict","done":1,"total":2,"test":"mp[rlx,rel,acq,rlx]",` +
		`"stack":"riscv-base-intuitive+TSO/riscv-curr","verdict":"Bug",` +
		`"key":"abc+def","cached":false,"specified_bug":true}`
	if got != want {
		t.Errorf("specified-bug verdict record bytes changed:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenSummaryRecord(t *testing.T) {
	got := mustMarshal(t, SummaryRecord{
		Type: "summary", Trace: "deadbeef", Done: 162, Total: 162,
		Bugs: 5, Strict: 7, Equivalent: 150, Cached: 81,
		ElapsedSeconds: 1.5, TestsPerSecond: 108,
		Stacks: []StackSummary{{
			Stack: "riscv-base-intuitive+TSO/riscv-curr",
			Tally: TallyJSON{Bugs: 5, Strict: 7, Equivalent: 150, Total: 162, SpecifiedBugs: 2},
			Families: []FamilyTally{{
				Family:    "mp",
				TallyJSON: TallyJSON{Equivalent: 81, Total: 81},
			}},
		}},
		Coverage: CoverageTotals{Models: 1, Jobs: 162, AxiomsFired: 9, AxiomsEdged: 8, AxiomsCycled: 4, Vectors: 162},
	})
	want := `{"type":"summary","trace":"deadbeef","done":162,"total":162,` +
		`"bugs":5,"strict":7,"equivalent":150,"cached":81,` +
		`"elapsed_seconds":1.5,"tests_per_sec":108,` +
		`"stacks":[{"stack":"riscv-base-intuitive+TSO/riscv-curr",` +
		`"tally":{"bugs":5,"strict":7,"equivalent":150,"total":162,"specified_bugs":2},` +
		`"families":[{"family":"mp","bugs":0,"strict":0,"equivalent":81,"total":81,"specified_bugs":0}]}],` +
		`"coverage":{"models":1,"jobs":162,"axioms_fired":9,"axioms_edged":8,"axioms_cycled":4,"vectors":162}}`
	if got != want {
		t.Errorf("summary record bytes changed:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenErrorRecord(t *testing.T) {
	got := mustMarshal(t, ErrorRecord{Type: "error", Error: "boom"})
	if want := `{"type":"error","error":"boom"}`; got != want {
		t.Errorf("error record bytes changed:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenCoverageSnapshot(t *testing.T) {
	got := mustMarshal(t, CoverageSnapshot{
		Axioms: []string{"PO_Fetch"},
		Models: []ModelMatrix{{
			Model:    "TSO/riscv-curr",
			Jobs:     2,
			Verdicts: map[string]uint64{"Equivalent": 2},
			Axioms:   []AxiomRow{{Axiom: "PO_Fetch", Fired: 2, Edges: 2, Cycles: 1}},
		}},
		Vectors: []VectorRecord{{Test: "mp[rlx,rel,acq,rlx]", Stack: "riscv-base-intuitive+TSO/riscv-curr", Verdict: "Equivalent"}},
		Totals:  CoverageTotals{Models: 1, Jobs: 2, AxiomsFired: 1, AxiomsEdged: 1, AxiomsCycled: 1, Vectors: 1},
	})
	want := `{"axioms":["PO_Fetch"],` +
		`"models":[{"model":"TSO/riscv-curr","jobs":2,"verdicts":{"Equivalent":2},` +
		`"axioms":[{"axiom":"PO_Fetch","fired":2,"edges":2,"cycles":1}]}],` +
		`"vectors":[{"test":"mp[rlx,rel,acq,rlx]","stack":"riscv-base-intuitive+TSO/riscv-curr","verdict":"Equivalent"}],` +
		`"totals":{"models":1,"jobs":2,"axioms_fired":1,"axioms_edged":1,"axioms_cycled":1,"vectors":1}}`
	if got != want {
		t.Errorf("coverage snapshot bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenVerifyRequest: the request encoding, uhb default omitted.
func TestGoldenVerifyRequest(t *testing.T) {
	got := mustMarshal(t, VerifyRequest{Family: "mp", ISA: "base", Variant: "curr", Workers: 4})
	if want := `{"family":"mp","isa":"base","variant":"curr","workers":4}`; got != want {
		t.Errorf("verify request bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestDivergencePayload pins the new divergence record schema (additive,
// so it only appears on backend=both streams).
func TestDivergencePayload(t *testing.T) {
	got := mustMarshal(t, VerdictRecord{
		Type: "verdict", Done: 1, Total: 1, Test: "sb[rlx,rlx,rlx,rlx]",
		Stack: "riscv-base-intuitive+SC/riscv-curr", Verdict: "Divergence",
		Key: "abc+def+both", Backend: "both",
		Divergence: &Divergence{
			UhbObservable:   []string{"a=0; b=1", "a=1; b=0", "a=1; b=1"},
			OpsimObservable: []string{"a=0; b=0", "a=0; b=1", "a=1; b=0", "a=1; b=1"},
			OpsimOnly:       []string{"a=0; b=0"},
			WitnessOutcome:  "a=0; b=0",
			Witness:         []string{"T0: execute instruction 0", "T1: execute instruction 0"},
		},
	})
	want := `{"type":"verdict","done":1,"total":1,"test":"sb[rlx,rlx,rlx,rlx]",` +
		`"stack":"riscv-base-intuitive+SC/riscv-curr","verdict":"Divergence",` +
		`"key":"abc+def+both","cached":false,"backend":"both",` +
		`"divergence":{"uhb_observable":["a=0; b=1","a=1; b=0","a=1; b=1"],` +
		`"opsim_observable":["a=0; b=0","a=0; b=1","a=1; b=0","a=1; b=1"],` +
		`"opsim_only":["a=0; b=0"],"witness_outcome":"a=0; b=0",` +
		`"witness":["T0: execute instruction 0","T1: execute instruction 0"]}}`
	if got != want {
		t.Errorf("divergence payload bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestErrorResponse pins the structured 400 body.
func TestErrorResponse(t *testing.T) {
	got := mustMarshal(t, ErrorResponse{
		Error:  `unknown backend "axiomatic" (want uhb, opsim or both)`,
		Fields: []FieldError{{Field: "backend", Message: `unknown backend "axiomatic" (want uhb, opsim or both)`}},
	})
	want := `{"error":"unknown backend \"axiomatic\" (want uhb, opsim or both)",` +
		`"fields":[{"field":"backend","message":"unknown backend \"axiomatic\" (want uhb, opsim or both)"}]}`
	if got != want {
		t.Errorf("error response bytes changed:\n got %s\nwant %s", got, want)
	}
}
