package core

import (
	"testing"

	"tricheck/internal/litmus"
)

// Allocation budgets. A sweep allocates per sweep and per distinct
// outcome set, not per (test, stack) pair: results come from one slab,
// group members with equal ids share one memo and C11's maps, and the
// ledger keeps a byte row per test. Built with Go 1.24 on linux/amd64,
// the cold mp sweep below allocates 4.14 times per pair, and its budget
// is 25% above that, so a change that puts an allocation back on every
// pair fails it. A one-pair Run allocates 84 times; fingerprinting its
// stack costs 24 more, so the Run budget of 100 fails a Run that
// fingerprints a stack nothing reads.
const (
	sweepAllocsPerPair = 5.2
	runAllocs          = 100
)

// TestSweepAllocationBudget counts the heap allocations of a cold mp
// sweep over the 28 Figure 15 stacks, on a fresh engine with one worker,
// per (test, stack) pair, and of an Engine.Run with no memo cache.
func TestSweepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values at random, so allocation counts vary")
	}
	tests := litmus.MP.Generate()
	stacks, err := SelectStacks("both", "both")
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(len(tests) * len(stacks))
	perPair := testing.AllocsPerRun(3, func() {
		if _, err := NewEngine().Sweep(tests, stacks, 1); err != nil {
			t.Fatal(err)
		}
	}) / pairs
	t.Logf("cold sweep of %d pairs: %.2f allocations per pair", int(pairs), perPair)
	if perPair > sweepAllocsPerPair {
		t.Errorf("cold sweep: %.2f allocations per (test, stack) pair, budget %.2f", perPair, sweepAllocsPerPair)
	}

	eng := NewEngine()
	run := testing.AllocsPerRun(20, func() {
		if _, err := eng.Run(tests[0], stacks[0]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.Run: %.0f allocations", run)
	if run > runAllocs {
		t.Errorf("Engine.Run with no memo: %.0f allocations, budget %d", run, runAllocs)
	}
}
