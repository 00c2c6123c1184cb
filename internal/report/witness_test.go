package report

import (
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

func wrcProgram(t *testing.T) (*litmus.Test, *compile.Mapping) {
	t.Helper()
	return litmus.WRC.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx}),
		compile.RISCVBaseIntuitive
}

func TestWitnessObservable(t *testing.T) {
	tst, m := wrcProgram(t)
	prog, err := compile.Compile(m, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Witness(uspec.NMM(uspec.Curr), prog, tst.Specified)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OBSERVABLE", "timeline", "Perform", "Visible", "lw r0, (x)"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness missing %q:\n%s", want, out)
		}
	}
}

func TestWitnessForbidden(t *testing.T) {
	tst, m := wrcProgram(t)
	prog, err := compile.Compile(m, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Witness(uspec.WR(uspec.Curr), prog, tst.Specified)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FORBIDDEN") || !strings.Contains(out, "cycle") {
		t.Errorf("forbidden witness malformed:\n%s", out)
	}
}

func TestWitnessNonCandidate(t *testing.T) {
	tst, m := wrcProgram(t)
	prog, err := compile.Compile(m, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Witness(uspec.NMM(uspec.Curr), prog, mem.Outcome("r0=99"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not a candidate") {
		t.Errorf("non-candidate witness: %s", out)
	}
}
