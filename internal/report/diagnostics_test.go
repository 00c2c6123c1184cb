package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// diagnosticsDigest is the SHA-256 of every Explain, Witness and DOT
// rendering of TestDiagnosticsBytesPinned's workload. It was generated
// before the diagnostics moved from a map-based graph onto the frozen
// skeleton; matching it is the proof that the move kept every byte.
const diagnosticsDigest = "b92511a42ef6b97ea7891ec0c1b38f0dbc6fea289fb29ea47cd38e26f7799031"

// TestDiagnosticsBytesPinned renders the three diagnostics — the Explain
// verdict line, the witness timeline or cycle, and ObservableGraph's DOT
// graph — for every candidate outcome of the uspec golden workload
// (every 97th paper-suite test × its six stacks) and pins their
// concatenation by one digest. witness_test.go checks shapes; this
// checks bytes.
func TestDiagnosticsBytesPinned(t *testing.T) {
	type stack struct {
		mapping *compile.Mapping
		model   *uspec.Model
	}
	stacks := []stack{
		{compile.RISCVBaseIntuitive, uspec.WR(uspec.Curr)},
		{compile.RISCVBaseIntuitive, uspec.RMM(uspec.Curr)},
		{compile.RISCVBaseIntuitive, uspec.NMM(uspec.Curr)},
		{compile.RISCVBaseIntuitive, uspec.A9like(uspec.Curr)},
		{compile.RISCVAtomicsIntuitive, uspec.NMM(uspec.Curr)},
		{compile.RISCVAtomicsRefined, uspec.NMM(uspec.Ours)},
	}
	h := sha256.New()
	records := 0
	suite := litmus.PaperSuite()
	for i := 0; i < len(suite); i += 97 {
		tst := suite[i]
		for _, s := range stacks {
			prog, err := compile.Compile(s.mapping, tst.Prog)
			if err != nil {
				t.Fatalf("compile %s with %s: %v", tst.Name, s.mapping.Name, err)
			}
			all, err := mem.Outcomes(prog.Mem())
			if err != nil {
				t.Fatal(err)
			}
			var outs []string
			for o := range all {
				outs = append(outs, string(o))
			}
			sort.Strings(outs)
			for _, o := range outs {
				outcome := mem.Outcome(o)
				obs, why, err := s.model.Explain(prog, outcome)
				if err != nil {
					t.Fatal(err)
				}
				w, err := Witness(s.model, prog, outcome)
				if err != nil {
					t.Fatal(err)
				}
				g, found, err := s.model.ObservableGraph(prog, outcome)
				if err != nil || !found {
					t.Fatalf("%s on %s: outcome %s: candidate %v, %v", tst.Name, s.model.FullName(), o, found, err)
				}
				fmt.Fprintf(h, "%s|%s|%s|%s|%v\n%s\n%s\n%s\n",
					tst.Name, s.mapping.Name, s.model.FullName(), o, obs, why, w, g.DOT(o))
				records++
			}
		}
	}
	if records == 0 {
		t.Fatal("empty workload")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != diagnosticsDigest {
		t.Errorf("diagnostics bytes drifted over %d records: digest %s, want %s", records, got, diagnosticsDigest)
	}
}
