package uspec

import (
	"fmt"
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
)

// TestExplainCycleAndDOT renders a forbidding graph (all-relaxed mp on
// WR) and an observable one (the same outcome on nMM): the cycle names
// labels and reasons and closes on its first node, DOT carries one
// labelled line per edge, the timeline keeps only performs, GetMs and
// visibility points, and unused visibility slots render as "n<node>".
func TestExplainCycleAndDOT(t *testing.T) {
	tst := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	g, found, err := WR(Curr).ObservableGraph(prog, tst.Specified)
	if err != nil || !found {
		t.Fatalf("ObservableGraph: %v found=%v", err, found)
	}
	cycle := g.FindCycle()
	s := g.ExplainCycle(cycle)
	for _, want := range []string{"T1.i0.Perform --[ppo-RR]--> T1.i1.Perform", "--[rf]-->", "--[fr]-->"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation %q missing %q", s, want)
		}
	}
	if !strings.HasSuffix(s, g.Label(cycle[0])) || g.Timeline() != nil {
		t.Errorf("cycle %q must close on its first node and have no timeline", s)
	}
	dot := g.DOT("mp")
	lines := strings.Split(strings.TrimSuffix(dot, "}\n"), "\n")
	if lines[0] != `digraph "mp" {` || len(lines)-2 != g.s.NumEdges() {
		t.Fatalf("DOT has %d lines for %d edges:\n%s", len(lines), g.s.NumEdges(), dot)
	}
	if !strings.Contains(dot, `  "T1.i0.Perform" -> "T1.i1.Perform" [label="ppo-RR"];`) {
		t.Errorf("DOT missing the ppo-RR edge:\n%s", dot)
	}

	g, _, _ = NMM(Curr).ObservableGraph(prog, tst.Specified)
	tl := g.Timeline()
	if len(tl) == 0 {
		t.Fatal("observable outcome must have a timeline")
	}
	for _, label := range tl {
		if !strings.Contains(label, "Perform") && !strings.Contains(label, "Visible@C") {
			t.Errorf("timeline entry %q is not a perform or visibility point", label)
		}
	}
	b := g.b
	if got := g.Label(b.visN(0, 1)); got != "T0.i0.Visible@C1" {
		t.Errorf("nMCA visibility label = %q", got)
	}
	if v := b.node(2, slotVis0); g.Label(v) != fmt.Sprintf("n%d", v) { // T1.i0 is a load
		t.Errorf("a load's visibility slot renders %q", g.Label(v))
	}
}
