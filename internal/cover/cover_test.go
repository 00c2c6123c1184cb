package cover

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"tricheck/api"
)

var testAxioms = []string{"alpha", "beta", "gamma", "delta"}
var testVerdicts = []string{"Equivalent", "OverlyStrict", "Bug"}

func TestLedgerRecordAndSnapshot(t *testing.T) {
	l := NewLedger(testAxioms, testVerdicts)
	m := l.Model("m1")
	m.Record(2, 0b0011, 0b0001, 0b0001) // alpha+beta fired, alpha edged+cycled
	m.Record(0, 0b0010, 0b0010, 0)      // beta fired+edged
	l.Model("m0").Record(1, 0b1000, 0b1000, 0)
	l.RecordVector("t1", "s1", 2)
	l.RecordVector("t1", "s2", 0)
	l.RecordVector("t0", "s1", 0)
	l.RecordVector("t1", "s1", 2) // idempotent repeat

	s := l.Snapshot()
	if got := []string{s.Models[0].Model, s.Models[1].Model}; got[0] != "m0" || got[1] != "m1" {
		t.Fatalf("models not sorted: %v", got)
	}
	m1 := s.Models[1]
	if m1.Jobs != 2 || m1.Verdicts["Bug"] != 1 || m1.Verdicts["Equivalent"] != 1 {
		t.Fatalf("m1 block = %+v", m1)
	}
	wantRows := []api.AxiomRow{
		{Axiom: "alpha", Fired: 1, Edges: 1, Cycles: 1},
		{Axiom: "beta", Fired: 2, Edges: 1, Cycles: 0},
	}
	if !reflect.DeepEqual(m1.Axioms, wantRows) {
		t.Fatalf("m1 axiom rows = %+v, want %+v", m1.Axioms, wantRows)
	}
	wantVec := []api.VectorRecord{
		{Test: "t0", Stack: "s1", Verdict: "Equivalent"},
		{Test: "t1", Stack: "s1", Verdict: "Bug"},
		{Test: "t1", Stack: "s2", Verdict: "Equivalent"},
	}
	if !reflect.DeepEqual(s.Vectors, wantVec) {
		t.Fatalf("vectors = %+v, want %+v", s.Vectors, wantVec)
	}
	want := api.CoverageTotals{Models: 2, Jobs: 3, AxiomsFired: 3, AxiomsEdged: 3, AxiomsCycled: 1, Vectors: 3}
	if s.Totals != want {
		t.Fatalf("totals = %+v, want %+v", s.Totals, want)
	}
	if got := l.TotalsNow(); got != want {
		t.Fatalf("TotalsNow = %+v, want %+v", got, want)
	}

	// The snapshot is deterministic down to the marshaled bytes.
	b1, _ := json.Marshal(s)
	b2, _ := json.Marshal(l.Snapshot())
	if string(b1) != string(b2) {
		t.Fatal("repeated snapshots marshal differently")
	}
}

func TestLedgerConcurrentRecord(t *testing.T) {
	l := NewLedger(testAxioms, testVerdicts)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Model("m").Record(i%3, 0b0101, 0b0001, 0b0100)
				l.RecordVector("t", "s", uint8(2))
			}
		}()
	}
	wg.Wait()
	s := l.Snapshot()
	if s.Totals.Jobs != 4000 {
		t.Fatalf("jobs = %d, want 4000", s.Totals.Jobs)
	}
	rows := s.Models[0].Axioms
	if len(rows) != 2 || rows[0].Fired != 4000 || rows[0].Edges != 4000 || rows[1].Cycles != 4000 {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestMinimalSuiteGreedy pins the reducer on a matrix with a known
// exact cover: t_broad separates most pairs, t_fine is required for one
// residual pair, t_redundant adds nothing and must not be picked.
func TestMinimalSuiteGreedy(t *testing.T) {
	l := NewLedger(testAxioms, testVerdicts)
	// Configs s0..s3. t_broad: s0,s1 = Bug; s2,s3 = Equivalent
	// (separates 01|23 pairs: 02 03 12 13). t_fine: s0 = Bug, rest
	// Equivalent (separates 01, 02, 03). t_redundant duplicates t_broad.
	// Pair (s2,s3) is separated by no test → inseparable.
	for _, v := range []struct {
		test  string
		verds [4]uint8
	}{
		{"t_broad", [4]uint8{2, 2, 0, 0}},
		{"t_fine", [4]uint8{2, 0, 0, 0}},
		{"t_redundant", [4]uint8{2, 2, 0, 0}},
	} {
		for j, verdict := range v.verds {
			l.RecordVector(v.test, []string{"s0", "s1", "s2", "s3"}[j], verdict)
		}
	}
	d := l.Discrimination()
	if len(d.Tests) != 3 || len(d.Stacks) != 4 {
		t.Fatalf("matrix %dx%d, want 3x4", len(d.Tests), len(d.Stacks))
	}
	s := d.MinimalSuite()
	if s.Configs != 4 || s.SeparablePairs != 5 {
		t.Fatalf("configs=%d separable=%d, want 4, 5", s.Configs, s.SeparablePairs)
	}
	wantPicks := []Pick{{Test: "t_broad", Separated: 4}, {Test: "t_fine", Separated: 1}}
	if !reflect.DeepEqual(s.Picks, wantPicks) {
		t.Fatalf("picks = %+v, want %+v", s.Picks, wantPicks)
	}
	if len(s.Inseparable) != 1 || s.Inseparable[0] != [2]string{"s2", "s3"} {
		t.Fatalf("inseparable = %v, want [[s2 s3]]", s.Inseparable)
	}

	// The picked suite must actually separate every separable pair.
	covered := map[[2]string]bool{}
	for _, p := range s.Picks {
		i := 0
		for ; d.Tests[i] != p.Test; i++ {
		}
		row := d.Verdict[i]
		for a := 0; a < len(d.Stacks); a++ {
			for b := a + 1; b < len(d.Stacks); b++ {
				if row[a] >= 0 && row[b] >= 0 && row[a] != row[b] {
					covered[[2]string{d.Stacks[a], d.Stacks[b]}] = true
				}
			}
		}
	}
	if len(covered) != s.SeparablePairs {
		t.Fatalf("suite covers %d pairs, want %d", len(covered), s.SeparablePairs)
	}
}

// TestMinimalSuiteMissingEntries: unknown verdicts (-1) never separate.
func TestMinimalSuiteMissingEntries(t *testing.T) {
	l := NewLedger(testAxioms, testVerdicts)
	l.RecordVector("t", "s0", 2)
	l.RecordVector("t", "s1", 2)
	l.RecordVector("u", "s1", 0) // u has no verdict on s0
	s := l.Discrimination().MinimalSuite()
	if s.SeparablePairs != 0 || len(s.Picks) != 0 {
		t.Fatalf("partial matrix separated pairs: %+v", s)
	}
	if len(s.Inseparable) != 1 {
		t.Fatalf("inseparable = %v, want the single (s0,s1) pair", s.Inseparable)
	}
}

func TestMinimalSuiteDeterministic(t *testing.T) {
	build := func() *Suite {
		l := NewLedger(testAxioms, testVerdicts)
		// Ties everywhere: three identical tests; selection must always
		// pick the lexicographically first.
		for _, test := range []string{"c", "a", "b"} {
			l.RecordVector(test, "s0", 2)
			l.RecordVector(test, "s1", 0)
		}
		return l.Discrimination().MinimalSuite()
	}
	s1, s2 := build(), build()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("non-deterministic suites: %+v vs %+v", s1, s2)
	}
	if len(s1.Picks) != 1 || s1.Picks[0].Test != "a" {
		t.Fatalf("tie-break pick = %+v, want test a", s1.Picks)
	}
}

func TestDiff(t *testing.T) {
	mk := func(verdict string, fired uint64, withBeta bool) *api.CoverageSnapshot {
		l := NewLedger(testAxioms, testVerdicts)
		bits := fired
		if withBeta {
			bits |= 0b0010
		}
		l.Model("m").Record(0, bits, bits, 0)
		var v uint8
		for i, name := range testVerdicts {
			if name == verdict {
				v = uint8(i)
			}
		}
		l.RecordVector("t", "s", v)
		l.RecordVector("t_old_only", "s", 0)
		return l.Snapshot()
	}
	old := mk("Bug", 0b0001, true)
	cur := mk("Equivalent", 0b0001, false)
	cur.Vectors = cur.Vectors[:1] // drop t_old_only; add a new-only one
	cur.Vectors = append(cur.Vectors, api.VectorRecord{Test: "t_new_only", Stack: "s", Verdict: "Bug"})
	cur.Totals.Vectors = len(cur.Vectors)

	d := Diff(old, cur)
	if d.Clean() {
		t.Fatal("diff reported clean despite a flip and regressions")
	}
	wantFlips := []Flip{{Test: "t", Stack: "s", Old: "Bug", New: "Equivalent"}}
	if !reflect.DeepEqual(d.Flips, wantFlips) {
		t.Fatalf("flips = %+v, want %+v", d.Flips, wantFlips)
	}
	wantReg := []Regression{
		{Model: "m", Axiom: "beta", Kind: "edges"},
		{Model: "m", Axiom: "beta", Kind: "fired"},
	}
	if !reflect.DeepEqual(d.Regressions, wantReg) {
		t.Fatalf("regressions = %+v, want %+v", d.Regressions, wantReg)
	}
	if d.OnlyOld != 1 || d.OnlyNew != 1 {
		t.Fatalf("only_old=%d only_new=%d, want 1, 1", d.OnlyOld, d.OnlyNew)
	}
	if !Diff(old, old).Clean() {
		t.Fatal("self-diff must be clean")
	}
}
