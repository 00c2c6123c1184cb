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

// mapPtr identifies a map, so that a test can tell a shared map from an
// equal copy.
func mapPtr(m map[mem.Outcome]bool) uintptr { return reflect.ValueOf(m).Pointer() }

// idSet is the outcome set of an id row.
func idSet(outs []mem.Outcome, ids []int) map[mem.Outcome]bool {
	set := make(map[mem.Outcome]bool, len(ids))
	for _, id := range ids {
		set[outs[id]] = true
	}
	return set
}

// TestGroupMembersShareOutcomeMaps: step 4 makes a group's outcome maps,
// one per distinct id row, and shares C11's wherever the sets are equal.
// Over Figure 15 groups it requires that every member's Observable holds
// exactly its observed outcomes, and that
//   - an Equivalent member holds C11's Allowed;
//   - a member that observes every candidate holds C11's All when the
//     group's candidate outcomes equal C11's;
//   - members with equal ids hold one *Memo;
//   - no two members of a group hold equal sets in different maps.
//
// Identity is checked by pointer, so an edit that copies a map or a memo
// fails here. The engine's own evaluate must share them the same way.
func TestGroupMembersShareOutcomeMaps(t *testing.T) {
	eng := NewEngine()
	var equivalent, allObserving, sharedMemo int
	check := func(name string, hll *c11.Result, memos []*Memo, rs []*uspec.Result) {
		t.Helper()
		outs := rs[0].Outcomes
		sameUniverse := len(hll.All) == len(outs) && !slices.ContainsFunc(outs, func(o mem.Outcome) bool { return !hll.All[o] })
		for i, m := range memos {
			r := rs[i]
			if !maps.Equal(m.Observable, idSet(outs, r.Observed)) {
				t.Errorf("%s member %d: Observable %v, observed ids %v of %v", name, i, m.Observable, r.Observed, outs)
			}
			switch {
			case m.Verdict == Equivalent:
				equivalent++
				if mapPtr(m.Observable) != mapPtr(hll.Allowed) {
					t.Errorf("%s member %d is Equivalent but does not hold C11's Allowed", name, i)
				}
			case len(r.Observed) == len(outs) && sameUniverse:
				allObserving++
				if mapPtr(m.Observable) != mapPtr(hll.All) {
					t.Errorf("%s member %d observes every candidate of C11's universe but does not hold C11's All", name, i)
				}
			}
			for j, q := range memos[:i] {
				if slices.Equal(rs[j].Observed, r.Observed) {
					if q != m {
						t.Errorf("%s members %d and %d: equal ids, two memos", name, j, i)
					}
					sharedMemo++
					break
				}
				if maps.Equal(q.Observable, m.Observable) && mapPtr(q.Observable) != mapPtr(m.Observable) {
					t.Errorf("%s members %d and %d hold equal sets in two maps", name, j, i)
				}
			}
		}
	}
	for _, variant := range []uspec.Variant{uspec.Curr, uspec.Ours} {
		for _, base := range []bool{true, false} {
			stacks := RISCVStacks(base, variant)
			table := make([]member, len(stacks))
			g := &group{members: make([]*member, len(stacks))}
			for i, s := range stacks {
				table[i] = newMember(s)
				g.members[i] = &table[i]
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
				name := tst.Name + " on " + stacks[0].Mapping.Name
				check(name, hll, compare(hll, rs), rs)

				// The engine's evaluate runs its own C11 evaluation, so C11's
				// maps are told apart by the sets they hold here.
				g.test, g.hll = tst, &hllSlot{}
				ms, err := eng.evaluate(g, BackendUHB, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range ms {
					for j, q := range ms[:i] {
						if maps.Equal(q.Observable, m.Observable) && q != m {
							t.Errorf("%s: evaluate gave members %d and %d equal sets in two memos", name, j, i)
						}
					}
				}
			}
		}
	}
	if equivalent == 0 || allObserving == 0 || sharedMemo == 0 {
		t.Errorf("%d Equivalent members, %d observing all of C11's universe, %d memos shared; want each", equivalent, allObserving, sharedMemo)
	}
}

// TestCompareOwnUniverse: a group whose candidate outcomes differ from
// C11's universe gets a candidate map of its own for the member that
// observes every candidate, and C11's remainder, the allowed outcomes no
// candidate reaches, is strict for every member. An opsim reachable set
// (reached) is the group's candidate map as it is.
func TestCompareOwnUniverse(t *testing.T) {
	set := func(os ...mem.Outcome) map[mem.Outcome]bool {
		m := map[mem.Outcome]bool{}
		for _, o := range os {
			m[o] = true
		}
		return m
	}
	hll := &c11.Result{Allowed: set("a", "b", "c"), All: set("a", "b", "c", "d")}
	outs := []mem.Outcome{"b", "a", "e"}
	rs := []*uspec.Result{
		{Outcomes: outs, Observed: []int{0, 1, 2}},
		{Outcomes: outs, Observed: []int{1}},
		{Outcomes: outs, Observed: []int{0, 1, 2}},
	}
	memos := compare(hll, rs)
	all, one := memos[0], memos[1]
	if all != memos[2] {
		t.Error("members 0 and 2 observe the same ids but hold two memos")
	}
	if !maps.Equal(all.Observable, set(outs...)) {
		t.Errorf("all-observing member holds %v, want the candidates %v", all.Observable, outs)
	}
	for _, c11Map := range []map[mem.Outcome]bool{hll.All, hll.Allowed} {
		if mapPtr(all.Observable) == mapPtr(c11Map) {
			t.Error("all-observing member holds one of C11's maps, whose set differs from the candidates")
		}
	}
	if all.Verdict != Bug || !slices.Equal(all.BugOutcomes, []mem.Outcome{"e"}) || !slices.Equal(all.StrictOutcomes, []mem.Outcome{"c"}) {
		t.Errorf("all-observing member: %v bugs=%v strict=%v, want Bug bugs=[e] strict=[c]", all.Verdict, all.BugOutcomes, all.StrictOutcomes)
	}
	if !maps.Equal(one.Observable, set("a")) || one.Verdict != OverlyStrict || len(one.BugOutcomes) != 0 || !slices.Equal(one.StrictOutcomes, []mem.Outcome{"b", "c"}) {
		t.Errorf("member observing a: %v %v bugs=%v strict=%v, want {a} OverlyStrict strict=[b c]", one.Observable, one.Verdict, one.BugOutcomes, one.StrictOutcomes)
	}

	reachedSet := set("a", "e")
	m := compare(hll, []*uspec.Result{reached([]mem.Outcome{"a", "e"}, reachedSet)})[0]
	if mapPtr(m.Observable) != mapPtr(reachedSet) {
		t.Error("an opsim member observing its whole reachable set does not hold that set's map")
	}
	if m.Verdict != Bug || !slices.Equal(m.BugOutcomes, []mem.Outcome{"e"}) || !slices.Equal(m.StrictOutcomes, []mem.Outcome{"b", "c"}) {
		t.Errorf("opsim member: %v bugs=%v strict=%v, want Bug bugs=[e] strict=[b c]", m.Verdict, m.BugOutcomes, m.StrictOutcomes)
	}
}

// TestBackendBothMemosAreOwn: under BackendBoth each member writes its
// own opsim side, so members that share a µhb memo (equal ids) must each
// get a memo of their own, and keep the µhb verdict and maps they share.
func TestBackendBothMemosAreOwn(t *testing.T) {
	eng := NewEngine()
	models := []*uspec.Model{uspec.SCProof(), uspec.TSO(), uspec.WR(uspec.Curr), uspec.NWR(uspec.Curr), uspec.NMM(uspec.Curr)}
	table := make([]member, len(models))
	g := &group{members: make([]*member, len(models))}
	for i, m := range models {
		table[i] = newMember(Stack{Mapping: compile.RISCVBaseIntuitive, Model: m})
		g.members[i] = &table[i]
	}
	sharedIDs := 0
	for _, tst := range litmus.MP.Generate()[:20] {
		g.test, g.hll = tst, &hllSlot{}
		uhb, err := eng.evaluate(g, BackendUHB, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		g.hll = &hllSlot{}
		both, err := eng.evaluate(g, BackendBoth, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range both {
			if m.Opsim == nil {
				t.Fatalf("%s on %s: no opsim side", tst.Name, table[i].name)
			}
			if m.Verdict != uhb[i].Verdict || !maps.Equal(m.Observable, uhb[i].Observable) {
				t.Errorf("%s on %s: both %v %v, uhb %v %v", tst.Name, table[i].name, m.Verdict, m.Observable, uhb[i].Verdict, uhb[i].Observable)
			}
			for j, q := range both[:i] {
				if q == m {
					t.Errorf("%s: members %d and %d share one memo under both", tst.Name, j, i)
				}
				if uhb[j] == uhb[i] {
					sharedIDs++
					if mapPtr(q.Observable) != mapPtr(m.Observable) {
						t.Errorf("%s: members %d and %d share a µhb memo but hold two maps under both", tst.Name, j, i)
					}
				}
			}
		}
		if (both[len(both)-1].Opsim.Skipped == "") != (opsim.Supports(models[len(models)-1].Config) == nil) {
			t.Errorf("%s: skip note %q on nMM", tst.Name, both[len(both)-1].Opsim.Skipped)
		}
	}
	if sharedIDs == 0 {
		t.Error("no two members shared a µhb memo; the copy went unchecked")
	}
}
