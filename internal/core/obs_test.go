package core

import (
	"context"
	"testing"
	"time"

	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

// TestCostMatrixAccumulates pins the per-(test, stack) cost matrix the
// `tricheck top` report ranks: every executed job lands exactly one
// costed cell, cells carry a phase split that sums below the job total,
// and the matrix comes back sorted by attributed phase time, most first.
func TestCostMatrixAccumulates(t *testing.T) {
	tests := litmus.CoRR.Generate()
	stacks, err := SelectStacks("base", "curr")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.EnableCostMatrix()
	eng.EnableMemoIfAbsent(0) // memoize so the warm rerun below executes nothing
	if _, err := eng.SweepStream(tests, stacks, 0, nil); err != nil {
		t.Fatal(err)
	}

	costs := eng.CostMatrix()
	if want := len(tests) * len(stacks); len(costs) != want {
		t.Fatalf("cost matrix has %d cells, want %d (every job executed once)", len(costs), want)
	}
	for i, c := range costs {
		if c.Count != 1 {
			t.Errorf("%s/%s: count = %d, want 1", c.Test, c.Stack, c.Count)
		}
		if c.Total <= 0 {
			t.Errorf("%s/%s: non-positive total %v", c.Test, c.Stack, c.Total)
		}
		if split := c.HLL + c.Compile + c.Skeleton + c.Enumerate + c.Opsim; split > c.Total {
			t.Errorf("%s/%s: phase split %v exceeds total %v", c.Test, c.Stack, split, c.Total)
		}
		if c.Candidates <= 0 {
			t.Errorf("%s/%s: no enumeration candidates recorded", c.Test, c.Stack)
		}
		if c.Family != litmus.CoRR.Name {
			t.Errorf("%s/%s: family %q", c.Test, c.Stack, c.Family)
		}
		if i > 0 && costs[i-1].Work() < c.Work() {
			t.Errorf("matrix not sorted: cell %d (%v) after %v", i, c.Work(), costs[i-1].Work())
		}
	}

	// A warm rerun on the same engine is all memo hits: cost cells must
	// not accumulate phantom executions.
	if _, err := eng.SweepStream(tests, stacks, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range eng.CostMatrix() {
		if c.Count != 1 {
			t.Errorf("%s/%s: warm rerun bumped count to %d", c.Test, c.Stack, c.Count)
		}
	}
}

// TestCostMatrixEmptyEngine pins the no-work shape (nil, not a panic).
func TestCostMatrixEmptyEngine(t *testing.T) {
	eng := NewEngine()
	eng.EnableCostMatrix()
	if costs := eng.CostMatrix(); len(costs) != 0 {
		t.Errorf("fresh engine has %d cost cells", len(costs))
	}
}

// TestCostMatrixOffByDefault: an engine keeps no cost cells unless its
// caller asks, so a sweep grows nothing per executed pair.
func TestCostMatrixOffByDefault(t *testing.T) {
	stacks, err := SelectStacks("base", "curr")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.Sweep(litmus.MP.Generate(), stacks, 2); err != nil {
		t.Fatal(err)
	}
	if eng.Executions() == 0 {
		t.Fatal("the sweep executed nothing")
	}
	if costs := eng.CostMatrix(); len(costs) != 0 {
		t.Errorf("engine without EnableCostMatrix has %d cost cells", len(costs))
	}
}

// TestCostMatrixOpsimPhase: the simulator's time is its own phase of the
// cost matrix on both operational backends, and Total covers the whole
// job — under backend=both that is the µhb phases plus the simulator.
func TestCostMatrixOpsimPhase(t *testing.T) {
	tests := litmus.SB.Generate()[:8]
	stacks := []Stack{
		{Mapping: compile.RISCVBaseIntuitive, Model: uspec.WR(uspec.Curr)},
		{Mapping: compile.RISCVBaseIntuitive, Model: uspec.NWR(uspec.Curr)},
	}
	for _, b := range []Backend{BackendOpsim, BackendBoth} {
		eng := NewEngine()
		eng.EnableCostMatrix()
		if _, err := eng.SweepStreamBackend(context.Background(), tests, stacks, 0, b, nil); err != nil {
			t.Fatal(err)
		}
		costs := eng.CostMatrix()
		if want := len(tests) * len(stacks); len(costs) != want {
			t.Fatalf("%v: cost matrix has %d cells, want %d", b, len(costs), want)
		}
		for _, c := range costs {
			if c.Opsim <= 0 {
				t.Errorf("%v %s/%s: no simulator time recorded", b, c.Test, c.Stack)
			}
			if split := c.HLL + c.Compile + c.Skeleton + c.Enumerate + c.Opsim; split > c.Total {
				t.Errorf("%v %s/%s: phase split %v exceeds total %v", b, c.Test, c.Stack, split, c.Total)
			}
			uhbRan := c.Skeleton > 0 && c.Enumerate > 0 && c.Candidates > 0
			if uhbRan != (b == BackendBoth) {
				t.Errorf("%v %s/%s: µhb phases %v/%v with %d candidates", b, c.Test, c.Stack, c.Skeleton, c.Enumerate, c.Candidates)
			}
		}
	}
}

// TestCostMatrixSharesGroupTime: a group's shared phases are split over
// its members rather than charged to each, so on one worker the cells'
// Totals add up to no more than the sweep's wall time. Charging every
// member the whole group's time would over-count about 7× here.
func TestCostMatrixSharesGroupTime(t *testing.T) {
	tests := litmus.WRC.Generate()
	stacks, err := SelectStacks("both", "both")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.EnableCostMatrix()
	start := time.Now()
	if _, err := eng.Sweep(tests, stacks, 1); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	costs := eng.CostMatrix()
	if want := len(tests) * len(stacks); len(costs) != want {
		t.Fatalf("cost matrix has %d cells, want %d", len(costs), want)
	}
	var sum time.Duration
	for _, c := range costs {
		sum += c.Total
		if split := c.HLL + c.Compile + c.Skeleton + c.Enumerate + c.Opsim; split > c.Total {
			t.Errorf("%s/%s: phase split %v exceeds total %v", c.Test, c.Stack, split, c.Total)
		}
	}
	if sum > wall {
		t.Errorf("cells total %v over a %v one-worker sweep", sum, wall)
	}
}

// TestCostMatrixChargesHLLOnce: a test's C11 evaluation runs once per
// sweep, so only the group that ran it charges HLL. The other mappings'
// groups found it done or waited on it, and that wait is not C11 work.
// After an mp sweep over the 28 stacks on 4 workers, each test's cells
// with HLL time are the 7 stacks of one mapping.
func TestCostMatrixChargesHLLOnce(t *testing.T) {
	tests := litmus.MP.Generate()
	stacks, err := SelectStacks("both", "both")
	if err != nil || len(stacks) != 28 {
		t.Fatalf("%d stacks, %v; want the 28 of the four RISC-V mappings", len(stacks), err)
	}
	mapping := map[string]string{} // stack name → mapping name
	for _, s := range stacks {
		mapping[s.Name()] = s.Mapping.Name
	}
	eng := NewEngine()
	eng.EnableCostMatrix()
	if _, err := eng.Sweep(tests, stacks, 4); err != nil {
		t.Fatal(err)
	}
	charged := map[string][]string{} // test → stacks charged HLL
	for _, c := range eng.CostMatrix() {
		if c.HLL > 0 {
			charged[c.Test] = append(charged[c.Test], c.Stack)
		}
	}
	for _, tst := range tests {
		got := charged[tst.Name]
		mappings := map[string]bool{}
		for _, s := range got {
			mappings[mapping[s]] = true
		}
		if len(got) != 7 || len(mappings) != 1 {
			t.Errorf("%s: HLL charged to %d cells over %d mappings, want the 7 stacks of one mapping",
				tst.Name, len(got), len(mappings))
		}
	}
}
