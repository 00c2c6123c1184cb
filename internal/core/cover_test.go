package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"tricheck/internal/litmus"
)

// runFamilySweep sweeps one litmus family over the base/curr Figure 15
// stacks on a fresh memoized engine and returns it.
func runFamilySweep(t *testing.T, family string) *Engine {
	t.Helper()
	tests := litmus.ShapeByName(family).Generate()
	stacks, err := SelectStacks("base", "curr")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.EnableMemo(0)
	if _, err := e.Sweep(tests, stacks, 0); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSweepPopulatesCoverageLedger: a Bug-producing sweep (wrc on the
// base/curr matrix: 108 specified bugs per buggy model) fills the
// per-(model, axiom) matrix and the verdict-vector store, with the
// structural invariants the ledger promises — per-model job counts match
// verdict tallies, edges never exceed fired, and at least one axiom is
// cycle-witnessed (by the configs that forbid; the buggy weak models
// reach their Bug verdicts with zero cycles, which is the bug).
func TestSweepPopulatesCoverageLedger(t *testing.T) {
	e := runFamilySweep(t, "wrc")
	tests := litmus.ShapeByName("wrc").Generate()
	stacks, _ := SelectStacks("base", "curr")

	snap := e.Coverage().Snapshot()
	if len(snap.Models) != len(stacks) {
		t.Fatalf("%d model blocks, want %d (one per base/curr model)", len(snap.Models), len(stacks))
	}
	if snap.Totals.Vectors != len(tests)*len(stacks) {
		t.Fatalf("%d vectors, want %d", snap.Totals.Vectors, len(tests)*len(stacks))
	}
	if snap.Totals.Jobs != e.Executions() {
		t.Fatalf("ledger jobs %d != engine executions %d", snap.Totals.Jobs, e.Executions())
	}
	cycled, bugs := 0, uint64(0)
	for _, mm := range snap.Models {
		if len(mm.Axioms) == 0 {
			t.Errorf("model %s has an empty axiom matrix", mm.Model)
		}
		var verdictSum uint64
		for _, n := range mm.Verdicts {
			verdictSum += n
		}
		if verdictSum != mm.Jobs {
			t.Errorf("model %s: verdict counts sum to %d, jobs %d", mm.Model, verdictSum, mm.Jobs)
		}
		bugs += mm.Verdicts["Bug"]
		for _, row := range mm.Axioms {
			if row.Edges > row.Fired {
				t.Errorf("model %s axiom %s: edges %d > fired %d", mm.Model, row.Axiom, row.Edges, row.Fired)
			}
			if row.Cycles > 0 {
				cycled++
			}
		}
	}
	if bugs == 0 {
		t.Fatal("wrc on base/curr produced no Bug verdicts; the sweep is supposed to be Bug-producing")
	}
	if cycled == 0 {
		t.Fatal("no (model, axiom) cell was cycle-witnessed in a Bug-producing sweep")
	}
	if snap.Totals.AxiomsCycled == 0 {
		t.Fatal("totals report zero cycle-witnessed axioms")
	}

	// Every vector verdict matches a re-run of the engine (memoized).
	seen := map[string]string{}
	for _, v := range snap.Vectors {
		seen[v.Test+"|"+v.Stack] = v.Verdict
	}
	r, err := e.Run(tests[0], stacks[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := seen[tests[0].Name+"|"+stacks[0].Name()]; got != r.Verdict.String() {
		t.Fatalf("vector verdict %q != engine verdict %q", got, r.Verdict)
	}
}

// TestCoverageWarmRerunAndDeterminism: a warm all-memoized rerun must
// leave the matrix untouched (no executions → no Record calls) while
// still re-recording every discrimination vector; and two fresh engines
// running the identical sweep produce byte-identical snapshots — the
// in-process half of the service's bit-for-bit e2e contract.
func TestCoverageWarmRerunAndDeterminism(t *testing.T) {
	tests := litmus.ShapeByName("mp").Generate()
	stacks, err := SelectStacks("base", "curr")
	if err != nil {
		t.Fatal(err)
	}
	e := runFamilySweep(t, "mp")
	cold, _ := json.Marshal(e.Coverage().Snapshot())
	execs := e.Executions()

	if _, err := e.Sweep(tests, stacks, 0); err != nil {
		t.Fatal(err)
	}
	if e.Executions() != execs {
		t.Fatalf("warm rerun executed %d jobs, want 0", e.Executions()-execs)
	}
	warm, _ := json.Marshal(e.Coverage().Snapshot())
	if string(cold) != string(warm) {
		t.Fatal("warm all-memoized rerun changed the coverage snapshot")
	}

	e2 := runFamilySweep(t, "mp")
	fresh, _ := json.Marshal(e2.Coverage().Snapshot())
	if string(cold) != string(fresh) {
		t.Fatal("fresh engines produced different coverage snapshots for the identical sweep")
	}

	// The discrimination matrix over the warm ledger still has full
	// vectors and a non-trivial minimal suite: the base/curr models are
	// not all verdict-equivalent on mp.
	d := e.Coverage().Discrimination()
	if len(d.Tests) != len(tests) || len(d.Stacks) != len(stacks) {
		t.Fatalf("matrix %dx%d, want %dx%d", len(d.Tests), len(d.Stacks), len(tests), len(stacks))
	}
	for i := range d.Tests {
		for j := range d.Stacks {
			if d.Verdict[i][j] < 0 {
				t.Fatalf("missing vector entry (%s, %s)", d.Tests[i], d.Stacks[j])
			}
		}
	}
	s := d.MinimalSuite()
	if len(s.Picks) == 0 || s.SeparablePairs == 0 {
		t.Fatalf("degenerate minimal suite: %+v", s)
	}
	covered := 0
	for _, p := range s.Picks {
		covered += p.Separated
	}
	if covered != s.SeparablePairs {
		t.Fatalf("suite separates %d of %d pairs", covered, s.SeparablePairs)
	}
}

// coveragePin is the SHA-256 of the coverage snapshot that
// TestCoverageSnapshotPinned's sweep produces. It moves only when cycle
// attribution, a verdict or the ledger schema changes.
const coveragePin = "79de29db9690c31cc10228b9fbaea6217e4f8f1008d9ab722c3dceee46cecfb5"

// TestCoverageSnapshotPinned pins every byte of the coverage ledger over
// a sample of the Figure 15 sweep: every 8th paper-suite test on all 28
// stacks, on a fresh engine. The per-(model, axiom) cycle counts come
// from each forbidden candidate's witnessing cycle, so the digest moves
// when a cycle is charged to different axioms, even though no verdict
// does. The sweep runs through the farm, so a Prepared that carries
// state from one pooled use into the next moves it too.
func TestCoverageSnapshotPinned(t *testing.T) {
	suite := litmus.PaperSuite()
	var tests []*litmus.Test
	for i := 0; i < len(suite); i += 8 {
		tests = append(tests, suite[i])
	}
	stacks, err := SelectStacks("both", "both")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	if _, err := e.Sweep(tests, stacks, 0); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(e.Coverage().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != coveragePin {
		t.Errorf("coverage snapshot of %d tests x %d stacks (%d bytes) has digest %s, want %s",
			len(tests), len(stacks), len(b), got, coveragePin)
	}
}
