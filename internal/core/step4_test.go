package core

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/opsim"
	"tricheck/internal/uspec"
)

// oracle is step 4 on outcome maps, as the engine ran it before it
// classified on interned ids, kept as an oracle that shares no code with
// compare: over the union of the ISA-side candidate outcomes and C11's
// outcomes, an outcome that is observable and not allowed is a bug, and
// one that is allowed and not observable is strict.
func oracle(hll *c11.Result, observable, candidates map[mem.Outcome]bool) (v Verdict, bugs, strict []mem.Outcome) {
	union := maps.Clone(candidates)
	maps.Copy(union, hll.All)
	for o := range union {
		switch {
		case observable[o] && !hll.Allowed[o]:
			bugs = append(bugs, o)
		case hll.Allowed[o] && !observable[o]:
			strict = append(strict, o)
		}
	}
	sort.Slice(bugs, func(i, j int) bool { return bugs[i] < bugs[j] })
	sort.Slice(strict, func(i, j int) bool { return strict[i] < strict[j] })
	switch {
	case len(bugs) > 0:
		return Bug, bugs, strict
	case len(strict) > 0:
		return OverlyStrict, bugs, strict
	}
	return Equivalent, bugs, strict
}

// checkOracle requires every result of a sweep to carry the oracle's
// verdict, bug outcomes and strict outcomes. candidates returns the
// ISA-side candidate set of a result. It returns how many results had a
// strict outcome outside their candidates: C11's remainder. Each test is
// evaluated under C11 once, for all of its results.
func checkOracle(t *testing.T, eng *Engine, srs []*SuiteResult, candidates func(*TestResult) map[mem.Outcome]bool) (remainder int) {
	t.Helper()
	hlls := map[*litmus.Test]*c11.Result{}
	for _, sr := range srs {
		for _, r := range sr.Results {
			hll, ok := hlls[r.Test]
			if !ok {
				var err error
				if hll, err = eng.HLL(r.Test); err != nil {
					t.Fatal(err)
				}
				hlls[r.Test] = hll
			}
			cands := candidates(r)
			v, bugs, strict := oracle(hll, r.Observable, cands)
			if r.Verdict != v || !slices.Equal(r.BugOutcomes, bugs) || !slices.Equal(r.StrictOutcomes, strict) {
				t.Errorf("%s on %s: %v bugs=%v strict=%v, oracle %v bugs=%v strict=%v",
					r.Test.Name, sr.Stack.Name(), r.Verdict, r.BugOutcomes, r.StrictOutcomes, v, bugs, strict)
			}
			if slices.ContainsFunc(strict, func(o mem.Outcome) bool { return !cands[o] }) {
				remainder++
			}
		}
	}
	return remainder
}

// TestStep4MatchesMapOracle holds the engine's step 4 to the map-based
// oracle on the paper suite over the 28 Figure 15 stacks (every fourth
// test under -short). The candidate set of a (test, mapping) is the
// compiled program's outcome set.
func TestStep4MatchesMapOracle(t *testing.T) {
	tests := litmus.PaperSuite()
	if testing.Short() {
		var sampled []*litmus.Test
		for i := 0; i < len(tests); i += 4 {
			sampled = append(sampled, tests[i])
		}
		tests = sampled
	}
	stacks, err := SelectStacks("both", "both")
	if err != nil || len(stacks) != 28 {
		t.Fatalf("%d stacks, %v; want 28", len(stacks), err)
	}
	eng := NewEngine()
	srs, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	type slot struct {
		test    *litmus.Test
		mapping *compile.Mapping
	}
	outcomes := map[slot]map[mem.Outcome]bool{}
	checkOracle(t, eng, srs, func(r *TestResult) map[mem.Outcome]bool {
		k := slot{r.Test, r.Stack.Mapping}
		if o, ok := outcomes[k]; ok {
			return o
		}
		prog, err := compile.Compile(k.mapping, k.test.Prog)
		if err != nil {
			t.Fatal(err)
		}
		o, err := mem.Outcomes(prog.Mem())
		compile.ReleaseProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[k] = o
		return o
	})
}

// TestStep4MatchesMapOracleOpsim holds step 4 to the oracle on
// BackendOpsim, whose candidates are the outcomes the machine reaches:
// an mp and sb sweep over the opsim-supported curr stacks. A machine
// reaches fewer outcomes than C11 allows, so here the oracle also checks
// C11's remainder, the allowed outcomes no candidate reaches.
func TestStep4MatchesMapOracleOpsim(t *testing.T) {
	all, err := SelectStacks("both", "curr")
	if err != nil {
		t.Fatal(err)
	}
	var stacks []Stack
	for _, s := range all {
		if opsim.Supports(s.Model.Config) == nil {
			stacks = append(stacks, s)
		}
	}
	if len(stacks) == 0 {
		t.Fatal("no opsim-supported curr stack")
	}
	tests := append(litmus.MP.Generate(), litmus.SB.Generate()...)
	eng := NewEngine()
	srs, err := eng.SweepStreamBackend(context.Background(), tests, stacks, 0, BackendOpsim, nil)
	if err != nil {
		t.Fatal(err)
	}
	remainder := checkOracle(t, eng, srs, func(r *TestResult) map[mem.Outcome]bool { return r.Observable })
	if remainder == 0 {
		t.Error("no result has a C11-allowed outcome the machine never reaches; the remainder went unchecked")
	}
}

// TestGroupMembersShareOutcomeMaps: in a Figure 15 group, members that
// observe the same outcome ids hold one Observable map, a member that
// observes every candidate holds the enumeration's All map, and step 4
// hands those maps to the memos as they are. Identity is checked by map
// pointer, so an edit that copies a map fails here. The engine's own
// evaluate must give members with equal observable sets one map too.
func TestGroupMembersShareOutcomeMaps(t *testing.T) {
	ptr := func(m map[mem.Outcome]bool) uintptr { return reflect.ValueOf(m).Pointer() }
	eng := NewEngine()
	var shared, allObserving int
	for _, variant := range []uspec.Variant{uspec.Curr, uspec.Ours} {
		for _, base := range []bool{true, false} {
			stacks := RISCVStacks(base, variant)
			g := group{members: make([]member, len(stacks))}
			for i, s := range stacks {
				g.members[i] = newMember(s)
			}
			for _, tst := range litmus.WRC.Generate()[:60] {
				hll, err := eng.HLL(tst)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := compile.Compile(stacks[0].Mapping, tst.Prog)
				if err != nil {
					t.Fatal(err)
				}
				prs := make([]*uspec.Prepared, len(stacks))
				for i, s := range stacks {
					prs[i] = s.Model.Prepare(prog)
				}
				rs, err := uspec.EvaluateAll(prs)
				for _, pr := range prs {
					pr.Close()
				}
				compile.ReleaseProgram(prog)
				if err != nil {
					t.Fatal(err)
				}
				memos := compare(hll, rs)
				for i, r := range rs {
					name := tst.Name + " on " + g.members[i].name
					if ptr(memos[i].Observable) != ptr(r.Observable) {
						t.Errorf("%s: the memo holds a copy of the result's Observable map", name)
					}
					if len(r.Observed) == len(r.Outcomes) {
						allObserving++
						if ptr(r.Observable) != ptr(r.All) {
							t.Errorf("%s observes every candidate but does not hold All", name)
						}
					}
					for j := range rs[:i] {
						if slices.Equal(rs[j].Observed, r.Observed) {
							shared++
							if ptr(r.Observable) != ptr(rs[j].Observable) {
								t.Errorf("%s: same ids as %s, different Observable maps", name, g.members[j].name)
							}
							break
						}
					}
				}

				g.test, g.hll = tst, &hllSlot{}
				ms, err := eng.evaluate(g, BackendUHB, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range ms {
					for _, q := range ms[:i] {
						if maps.Equal(q.Observable, m.Observable) && ptr(q.Observable) != ptr(m.Observable) {
							t.Errorf("%s on %s: evaluate gave equal observable sets two maps", tst.Name, g.members[i].name)
							break
						}
					}
				}
			}
		}
	}
	if shared == 0 || allObserving == 0 {
		t.Errorf("%d members shared an earlier member's ids and %d observed every candidate; want both", shared, allObserving)
	}
}
