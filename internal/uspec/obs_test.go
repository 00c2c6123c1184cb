package uspec

import (
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// TestVerdictHotPathZeroAllocWithMetrics holds the verdict path's
// allocation invariant under telemetry: with the metrics registry live and
// verdict spans sampled at their default 1-in-16, the per-execution cycle
// check must still allocate nothing and format no diagnostic strings, on
// an acyclic candidate (the closure's verdict alone) and on a cyclic one
// (the overlay replay and its witnessing cycle too). The engine times
// whole phases around it, never a single check, so enabling
// observability must not move allocs/op on the verdict path.
func TestVerdictHotPathZeroAllocWithMetrics(t *testing.T) {
	tst := litmus.WRC.Instantiate([]c11.Order{c11.SC, c11.SC, c11.Rel, c11.Acq, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVAtomicsRefined, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	m := NMM(Ours)
	pr := m.Prepare(prog)
	defer pr.Close()

	// checked[observable] marks the first candidate of each verdict.
	var checked [2]bool
	formatsBefore := DiagnosticFormats()
	err = mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
		observable := pr.ExecutionObservable(x)
		v := 0
		if observable {
			v = 1
		}
		if checked[v] {
			return true
		}
		// x is only valid inside the callback; measure here.
		allocs := testing.AllocsPerRun(100, func() {
			pr.ExecutionObservable(x)
		})
		if allocs != 0 {
			t.Errorf("ExecutionObservable allocates %.1f/op on a candidate with observable=%v, want 0", allocs, observable)
		}
		checked[v] = true
		return !checked[0] || !checked[1]
	})
	if err != nil && err != mem.ErrStopped {
		t.Fatal(err)
	}
	if !checked[0] || !checked[1] {
		t.Fatalf("measured a cyclic candidate %v, an acyclic one %v; want both", checked[0], checked[1])
	}
	if got := DiagnosticFormats() - formatsBefore; got != 0 {
		t.Errorf("hot path formatted %d diagnostic strings, want 0", got)
	}
}
