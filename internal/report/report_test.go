package report

import (
	"strings"
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/core"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

func sampleResults(t *testing.T) []*core.SuiteResult {
	t.Helper()
	eng := core.NewEngine()
	tests := litmus.CoRR.Generate()
	var out []*core.SuiteResult
	for _, m := range []*uspec.Model{uspec.RWR(uspec.Curr), uspec.RMM(uspec.Curr)} {
		res, err := eng.RunSuite(tests, core.Stack{Mapping: compile.RISCVBaseIntuitive, Model: m}, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func TestFigure15Rendering(t *testing.T) {
	results := sampleResults(t)
	var b strings.Builder
	Figure15(&b, results)
	s := b.String()
	for _, want := range []string{"corr", "aggregate", "rWR/riscv-curr", "rMM/riscv-curr", "bugs"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure15 output missing %q", want)
		}
	}
	// rMM has 18 corr bugs; the bug glyph must appear in its chart row.
	if !strings.Contains(s, "#") {
		t.Error("no bug bar rendered")
	}
	// Empty input: no panic, no output.
	var e strings.Builder
	Figure15(&e, nil)
	if e.Len() != 0 {
		t.Error("empty results should render nothing")
	}
}

func TestCSVRendering(t *testing.T) {
	results := sampleResults(t)
	var b strings.Builder
	CSV(&b, results)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "stack,family,bugs,strict,equivalent,total,specified_bugs" {
		t.Errorf("bad CSV header: %q", lines[0])
	}
	// One family row plus one ALL row per stack, plus the header.
	if len(lines) != 1+2*2 {
		t.Errorf("%d CSV lines, want 5", len(lines))
	}
	if !strings.Contains(b.String(), "rMM/riscv-curr,corr,18,") {
		t.Errorf("CSV missing the 18-bug corr row:\n%s", b.String())
	}
}

func TestTable7Rendering(t *testing.T) {
	var b strings.Builder
	Table7(&b, uspec.Curr)
	s := b.String()
	for _, want := range []string{"WR", "rWR", "rWM", "rMM", "nWR", "nMM", "A9like", "relaxed", "directory"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table7 missing %q:\n%s", want, s)
		}
	}
	// riscv-curr relaxes same-address R→R on 3 models (4 rows "ordered").
	if got := strings.Count(s, "ordered"); got != 4 {
		t.Errorf("riscv-curr table has %d ordered rows, want 4", got)
	}
	var o strings.Builder
	Table7(&o, uspec.Ours)
	if got := strings.Count(o.String(), "ordered"); got != 7 {
		t.Errorf("riscv-ours table must order same-address R→R on all 7 models, got %d", got)
	}
}

func TestMappingTableRendering(t *testing.T) {
	var b strings.Builder
	MappingTable(&b, compile.RISCVBaseIntuitive)
	s := b.String()
	// Table 2's intuitive column in the paper's notation.
	for _, want := range []string{"ld rlx", "ld; f[r,rw]", "f[rw,rw]; ld; f[rw,rw]", "f[rw,w]; st"} {
		if !strings.Contains(s, want) {
			t.Errorf("mapping table missing %q:\n%s", want, s)
		}
	}
	var r strings.Builder
	MappingTable(&r, compile.RISCVBaseRefined)
	if !strings.Contains(r.String(), "lwf; st") || !strings.Contains(r.String(), "hwf; st") {
		t.Errorf("refined table missing cumulative fences:\n%s", r.String())
	}
	var a strings.Builder
	MappingTable(&a, compile.RISCVAtomicsRefined)
	if !strings.Contains(a.String(), "AMO.aq.sc") || !strings.Contains(a.String(), "AMO.rl.sc") {
		t.Errorf("atomics table missing .sc AMOs:\n%s", a.String())
	}
}
