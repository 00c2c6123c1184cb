package report

import (
	"fmt"
	"strings"

	"tricheck/internal/isa"
	"tricheck/internal/isa/power"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// Witness renders a human-readable explanation of how an outcome happens
// (or why it cannot): for an observable outcome, a global timeline of µhb
// events taken from a topological order of an acyclic witness graph; for a
// forbidden outcome, the µhb cycle.
func Witness(model *uspec.Model, p *isa.Program, outcome mem.Outcome) (string, error) {
	g, found, err := model.ObservableGraph(p, outcome)
	if err != nil {
		return "", err
	}
	if !found {
		return fmt.Sprintf("outcome %q is not a candidate final state", outcome), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "outcome %q on %s\n", outcome, model.FullName())
	asm := riscv.Asm
	if p.Arch != isa.RISCV {
		asm = power.Asm
	}
	for t, th := range p.Instrs {
		fmt.Fprintf(&b, "T%d:", t)
		for _, ins := range th {
			fmt.Fprintf(&b, "  %s;", asm(p, ins))
		}
		b.WriteByte('\n')
	}
	if cycle := g.FindCycle(); cycle != nil {
		fmt.Fprintf(&b, "FORBIDDEN — µhb cycle:\n  %s\n", g.ExplainCycle(cycle))
		return b.String(), nil
	}
	fmt.Fprintf(&b, "OBSERVABLE — one µhb-consistent timeline:\n")
	for i, label := range g.Timeline() {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, label)
	}
	return b.String(), nil
}
