package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/uspec"
)

// renderSuites serializes sweep results completely enough that two
// byte-identical renderings imply identical verdicts, outcome sets and
// tallies.
func renderSuites(results []*SuiteResult) string {
	var b strings.Builder
	for _, sr := range results {
		fmt.Fprintf(&b, "== %s ==\n", sr.Stack.Name())
		for _, r := range sr.Results {
			fmt.Fprintf(&b, "%s %s racy=%t bugs=%v strict=%v spec=%t/%t/%t\n",
				r.Test.Name, r.Verdict, r.Racy, r.BugOutcomes, r.StrictOutcomes,
				r.SpecifiedAllowed, r.SpecifiedObservable, r.SpecifiedBug)
			var allowed, observable []string
			for o := range r.Allowed {
				allowed = append(allowed, string(o))
			}
			for o := range r.Observable {
				observable = append(observable, string(o))
			}
			sort.Strings(allowed)
			sort.Strings(observable)
			fmt.Fprintf(&b, "  allowed=%v observable=%v\n", allowed, observable)
		}
		fmt.Fprintf(&b, "tally=%+v\n", sr.Tally)
		for _, f := range sr.FamilyNames() {
			fmt.Fprintf(&b, "  %s=%+v\n", f, *sr.ByFamily[f])
		}
	}
	return b.String()
}

func testStacks() []Stack {
	return append(RISCVStacks(true, uspec.Curr)[:2], RISCVStacks(true, uspec.Ours)[:2]...)
}

func testSuite() []*litmus.Test {
	return append(litmus.MP.Generate(), litmus.SB.Generate()...)
}

// TestWarmSweepIsByteIdenticalWithZeroExecutions is the satellite farm
// test: an identical second sweep is served entirely from the memo
// cache — zero verifier executions, byte-identical SuiteResults.
func TestWarmSweepIsByteIdenticalWithZeroExecutions(t *testing.T) {
	eng := NewEngine()
	eng.EnableMemo(0)
	tests := testSuite()
	stacks := testStacks()

	cold, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldExecs := eng.Executions()
	if want := uint64(len(tests) * len(stacks)); coldExecs != want {
		t.Fatalf("cold sweep executed %d jobs, want %d", coldExecs, want)
	}

	warm, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Executions() - coldExecs; got != 0 {
		t.Fatalf("warm sweep executed %d jobs, want 0 (all cache hits)", got)
	}
	stats := eng.LastFarmStats()
	if stats.CacheHits != len(tests)*len(stacks) || stats.Executed != 0 {
		t.Fatalf("warm farm stats %+v", stats)
	}
	if renderSuites(cold) != renderSuites(warm) {
		t.Fatal("warm sweep results are not byte-identical to cold sweep")
	}
}

// TestSweepDeterministicAcrossWorkerCounts checks that worker count and
// steal schedule never leak into results.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	tests := testSuite()
	stacks := testStacks()
	var want string
	for _, workers := range []int{1, 2, 5, 16} {
		eng := NewEngine()
		rs, err := eng.Sweep(tests, stacks, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := renderSuites(rs)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("results with %d workers differ from 1 worker", workers)
		}
	}
}

// TestMemoSnapshotWarmsAFreshEngine checks the on-disk cache: a new
// engine loading the snapshot re-verifies nothing and reproduces the
// same results.
func TestMemoSnapshotWarmsAFreshEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	tests := litmus.MP.Generate()
	stacks := testStacks()[:2]

	first := NewEngine()
	first.EnableMemo(0)
	cold, err := first.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SaveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}

	second := NewEngine()
	if err := second.LoadMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	warm, err := second.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executions() != 0 {
		t.Fatalf("snapshot-warmed engine executed %d jobs, want 0", second.Executions())
	}
	if renderSuites(cold) != renderSuites(warm) {
		t.Fatal("snapshot-warmed results differ")
	}
}

// TestSweepDedupAcrossStacks: submitting the same stack twice in one
// sweep verifies each (test, stack) job once.
func TestSweepDedupAcrossStacks(t *testing.T) {
	eng := NewEngine()
	tests := litmus.MP.Generate()
	s := RISCVStacks(true, uspec.Curr)[0]
	rs, err := eng.Sweep(tests, []Stack{s, s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Executions() != uint64(len(tests)) {
		t.Fatalf("executed %d, want %d (duplicate stack deduplicated)", eng.Executions(), len(tests))
	}
	if renderSuites(rs[:1]) != renderSuites(rs[1:]) {
		t.Fatal("duplicate stacks produced different suite results")
	}
}

// TestSweepStreamDeliversEveryResult checks the streaming channel.
func TestSweepStreamDeliversEveryResult(t *testing.T) {
	eng := NewEngine()
	tests := litmus.MP.Generate()
	stacks := testStacks()[:2]
	events := make(chan Progress, len(tests)*len(stacks))
	if _, err := eng.SweepStream(tests, stacks, 0, events); err != nil {
		t.Fatal(err)
	}
	n := 0
	var last Progress
	for ev := range events {
		n++
		last = ev
		if ev.Total != len(tests)*len(stacks) {
			t.Fatalf("event total = %d", ev.Total)
		}
	}
	if n != len(tests)*len(stacks) {
		t.Fatalf("streamed %d events, want %d", n, len(tests)*len(stacks))
	}
	if last.Done != n {
		t.Fatalf("last event Done = %d, want %d", last.Done, n)
	}
}

// TestSweepEmptyInputs: a sweep with no tests or no stacks schedules
// nothing and returns an empty, non-nil result list (no SuiteResult for
// a stack without tests) and a closed, empty event channel.
func TestSweepEmptyInputs(t *testing.T) {
	for name, in := range map[string]struct {
		tests  []*litmus.Test
		stacks []Stack
	}{
		"no tests":  {nil, testStacks()},
		"no stacks": {testSuite(), nil},
	} {
		events := make(chan Progress, 1)
		res, err := NewEngine().SweepStreamBackend(context.Background(), in.tests, in.stacks, 0, BackendUHB, events)
		if err != nil || res == nil || len(res) != 0 {
			t.Errorf("%s: got %d results (nil=%t), err %v; want an empty list", name, len(res), res == nil, err)
		}
		if _, open := <-events; open {
			t.Errorf("%s: event channel delivered a result or was left open", name)
		}
	}
}

// TestStackFingerprintSensitivity: editing one model axiom or one
// mapping recipe changes the fingerprint; renaming does not.
func TestStackFingerprintSensitivity(t *testing.T) {
	s := RISCVStacks(true, uspec.Curr)[0]
	base := StackFingerprint(s)

	renamed := s
	m := *s.Model
	m.Name = "renamed"
	renamed.Model = &m
	if StackFingerprint(renamed) != base {
		t.Error("renaming the model changed the stack fingerprint")
	}

	edited := s
	m2 := *s.Model
	m2.RelaxRR = !m2.RelaxRR
	edited.Model = &m2
	if StackFingerprint(edited) == base {
		t.Error("editing a model axiom did not change the stack fingerprint")
	}

	remapped := s
	mp := *s.Mapping
	mp.StoreSC = append(mp.StoreSC[:len(mp.StoreSC):len(mp.StoreSC)], mp.StoreSC[len(mp.StoreSC)-1])
	remapped.Mapping = &mp
	if StackFingerprint(remapped) == base {
		t.Error("editing a mapping recipe did not change the stack fingerprint")
	}
}

func TestSweepStreamContextCancellationStopsScheduling(t *testing.T) {
	eng := NewEngine()
	eng.EnableMemo(0)
	tests := testSuite()
	stacks := testStacks()
	total := len(tests) * len(stacks)

	ctx, cancel := context.WithCancel(context.Background())
	events := make(chan Progress, 1)
	var got []Progress
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			got = append(got, ev)
			if len(got) == 3 {
				cancel()
			}
		}
	}()
	// Single worker + unbuffered-ish channel: the farm cannot race far
	// ahead of the consumer, so cancelling after 3 events leaves most of
	// the sweep unscheduled.
	results, err := eng.SweepStreamBackend(ctx, tests, stacks, 1, BackendUHB, events)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("aborted sweep returned results")
	}
	if int(eng.Executions()) >= total {
		t.Fatalf("aborted sweep executed all %d jobs", total)
	}
	if stats := eng.LastFarmStats(); stats.Skipped == 0 {
		t.Fatalf("no jobs skipped after cancellation: %+v", stats)
	}
	for _, ev := range got {
		if ev.Key == "" {
			t.Fatal("streamed event missing job key")
		}
	}

	// The cache was not poisoned: a fresh full sweep on the same engine
	// reuses the aborted run's memos and its results are identical to an
	// untouched engine's.
	warm, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewEngine()
	want, err := ref.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if renderSuites(warm) != renderSuites(want) {
		t.Fatal("post-abort sweep differs from a fresh engine's")
	}
	if int(eng.Executions()) != len(canonKeys(tests, stacks)) {
		t.Fatalf("executions = %d, want %d unique jobs across abort + completion",
			eng.Executions(), len(canonKeys(tests, stacks)))
	}
}

// canonKeys returns the distinct job keys of a sweep.
func canonKeys(tests []*litmus.Test, stacks []Stack) map[string]bool {
	keys := map[string]bool{}
	for _, s := range stacks {
		for _, tst := range tests {
			keys[JobKey(tst, s)] = true
		}
	}
	return keys
}

func TestSweepStreamEventKeysMatchJobKeys(t *testing.T) {
	eng := NewEngine()
	tests := testSuite()[:6]
	stacks := testStacks()[:2]
	events := make(chan Progress, len(tests)*len(stacks))
	if _, err := eng.SweepStream(tests, stacks, 0, events); err != nil {
		t.Fatal(err)
	}
	want := canonKeys(tests, stacks)
	n := 0
	for ev := range events {
		if !want[ev.Key] {
			t.Fatalf("event key %q is not a JobKey of the sweep", ev.Key)
		}
		n++
	}
	if n != len(tests)*len(stacks) {
		t.Fatalf("streamed %d events, want %d", n, len(tests)*len(stacks))
	}
}

func TestSelectStacks(t *testing.T) {
	both, err := SelectStacks("both", "both")
	if err != nil || len(both) != 28 {
		t.Fatalf("both/both: %d stacks, err %v (want 28)", len(both), err)
	}
	base, err := SelectStacks("base", "curr")
	if err != nil || len(base) != 7 {
		t.Fatalf("base/curr: %d stacks, err %v (want 7)", len(base), err)
	}
	// Fixed frontend-shared order: base-curr, base-ours, base+a-curr,
	// base+a-ours.
	var names []string
	for _, s := range both {
		names = append(names, s.Name())
	}
	wantOrder := append(append(append(
		stackNames(RISCVStacks(true, uspec.Curr)),
		stackNames(RISCVStacks(true, uspec.Ours))...),
		stackNames(RISCVStacks(false, uspec.Curr))...),
		stackNames(RISCVStacks(false, uspec.Ours))...)
	if !reflect.DeepEqual(names, wantOrder) {
		t.Fatalf("stack order:\n got %v\nwant %v", names, wantOrder)
	}
	if _, err := SelectStacks("bogus", "curr"); err == nil {
		t.Fatal("bogus ISA flavour accepted")
	}
	if _, err := SelectStacks("base", "bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func stackNames(ss []Stack) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.Name())
	}
	return out
}

// TestSweepGroupsKeepPerPairAccounting: the farm runs (test, mapping)
// groups, but everything a caller sees stays per (test, stack). With 4
// of the 7 base/curr stacks warm, a 7-stack sweep executes exactly the 3
// cold stacks' pairs, counts the 4 warm stacks' pairs as memo hits (in
// the farm stats and in tricheck_farm_memo_total), streams cached:true
// on exactly those stacks, and renders like a cold 7-stack sweep.
func TestSweepGroupsKeepPerPairAccounting(t *testing.T) {
	tests := litmus.MP.Generate()
	all, err := SelectStacks("base", "curr")
	if err != nil {
		t.Fatal(err)
	}
	warm := []Stack{all[0], all[2], all[4], all[6]}
	eng := NewEngine()
	eng.EnableMemo(0)
	eng.EnableCostMatrix()
	if _, err := eng.Sweep(tests, warm, 4); err != nil {
		t.Fatal(err)
	}
	n := len(tests)
	execs := eng.Executions()
	hits, misses, lookups := farmMetrics.MemoHits.Value(), farmMetrics.MemoMisses.Value(), farmMetrics.MemoLookup.Count()

	events := make(chan Progress, n*len(all))
	got, err := eng.SweepStream(tests, all, 4, events)
	if err != nil {
		t.Fatal(err)
	}
	if d := eng.Executions() - execs; d != uint64(3*n) {
		t.Errorf("executed %d pairs, want %d", d, 3*n)
	}
	stats := eng.LastFarmStats()
	if stats.Jobs != 7*n || stats.Unique != 7*n || stats.CacheHits != 4*n || stats.Executed != 3*n || stats.Skipped != 0 {
		t.Errorf("farm stats %+v, want jobs=unique=%d hits=%d executed=%d skipped=0", stats, 7*n, 4*n, 3*n)
	}
	if d := farmMetrics.MemoHits.Value() - hits; d != uint64(4*n) {
		t.Errorf("memo hit counter moved %d, want %d", d, 4*n)
	}
	if d := farmMetrics.MemoMisses.Value() - misses; d != uint64(3*n) {
		t.Errorf("memo miss counter moved %d, want %d", d, 3*n)
	}
	if d := farmMetrics.MemoLookup.Count() - lookups; d != uint64(7*n) {
		t.Errorf("memo lookup histogram moved %d, want %d", d, 7*n)
	}
	isWarm := map[string]bool{}
	for _, s := range warm {
		isWarm[s.Name()] = true
	}
	cached, streamed := map[string]int{}, 0
	for ev := range events {
		streamed++
		if ev.Cached {
			cached[ev.Stack]++
		}
	}
	if streamed != 7*n {
		t.Errorf("streamed %d results, want %d", streamed, 7*n)
	}
	for _, s := range all {
		want := 0
		if isWarm[s.Name()] {
			want = n
		}
		if cached[s.Name()] != want {
			t.Errorf("%s: %d results streamed cached, want %d", s.Name(), cached[s.Name()], want)
		}
	}
	if cells := len(eng.CostMatrix()); cells != 7*n {
		t.Errorf("cost matrix has %d cells, want one per executed pair (%d)", cells, 7*n)
	}
	cold, err := NewEngine().Sweep(tests, all, 4)
	if err != nil {
		t.Fatal(err)
	}
	if renderSuites(got) != renderSuites(cold) {
		t.Error("partly warm sweep renders differently from a cold one")
	}
}

// TestSweepCompilesAndEnumeratesOncePerMapping: a cold sweep of one
// paper family over the 28 Figure 15 stacks compiles and enumerates each
// test once per compiler mapping (4), not once per stack (28), while
// every stack's model still builds its own skeleton. C11 runs, and the
// hll phase is observed, once per test.
func TestSweepCompilesAndEnumeratesOncePerMapping(t *testing.T) {
	tests := litmus.MP.Generate()
	stacks, err := SelectStacks("both", "both")
	if err != nil {
		t.Fatal(err)
	}
	phase := func(name string) *obs.Histogram {
		return obs.Default.Histogram("tricheck_verdict_phase_seconds", "Per-verdict toolflow phase durations.", nil, obs.L("phase", name))
	}
	names := []string{"hll", "compile", "enumerate", "skeleton"}
	before := map[string]uint64{}
	for _, p := range names {
		before[p] = phase(p).Count()
	}
	if _, err := NewEngine().Sweep(tests, stacks, 4); err != nil {
		t.Fatal(err)
	}
	n := len(tests)
	want := map[string]int{"hll": n, "compile": 4 * n, "enumerate": 4 * n, "skeleton": 28 * n}
	for _, p := range names {
		if d := phase(p).Count() - before[p]; d != uint64(want[p]) {
			t.Errorf("%s phase observed %d times, want %d", p, d, want[p])
		}
	}
}

// TestEachSweepEvaluatesC11OncePerTest: a test's C11 evaluation lives
// for one sweep. Two cold sweeps of one family over the 28 Figure 15
// stacks, on one engine with no memo cache, each observe the hll phase
// once per test: the second sweep reuses nothing the first evaluated.
func TestEachSweepEvaluatesC11OncePerTest(t *testing.T) {
	tests := litmus.MP.Generate()
	stacks, err := SelectStacks("both", "both")
	if err != nil || len(stacks) != 28 {
		t.Fatalf("%d stacks, %v; want 28", len(stacks), err)
	}
	hll := obs.Default.Histogram("tricheck_verdict_phase_seconds", "Per-verdict toolflow phase durations.", nil, obs.L("phase", "hll"))
	eng := NewEngine()
	for sweep := 1; sweep <= 2; sweep++ {
		before := hll.Count()
		if _, err := eng.Sweep(tests, stacks, 4); err != nil {
			t.Fatal(err)
		}
		if d := hll.Count() - before; d != uint64(len(tests)) {
			t.Errorf("sweep %d observed the hll phase %d times, want %d (once per test)", sweep, d, len(tests))
		}
	}
}

// TestSweepErrorsAreNotMemoized: a group whose evaluation fails puts
// nothing in the memo cache, so a rerun serves the good pairs from the
// cache and executes the failed ones again — failing again, rather than
// replaying a cached verdict.
func TestSweepErrorsAreNotMemoized(t *testing.T) {
	// The paper's mappings have no recipe for C11 RMWs, so this test
	// passes the C11 step and fails to compile on every stack.
	p := c11.New(1, "x")
	p.RMW(0, c11.Rlx, mem.Const(0), mem.Const(1), 0, mem.RMWAdd)
	p.Observe(0, 0, "r0")
	rmw := &litmus.Test{Name: "rmw", Shape: &litmus.Shape{Name: "rmw"}, Prog: p}
	good := litmus.MP.Generate()[:3]
	tests := append(good, rmw)
	stacks := testStacks()

	eng := NewEngine()
	eng.EnableMemo(0)
	for run := 0; run < 2; run++ {
		if _, err := eng.Sweep(tests, stacks, 2); err == nil || !strings.Contains(err.Error(), "RMW") {
			t.Fatalf("run %d: err = %v, want the RMW compile error", run, err)
		}
		if ms, _ := eng.MemoStats(); ms.Len != len(good)*len(stacks) {
			t.Fatalf("run %d: memo holds %d entries, want the %d good pairs", run, ms.Len, len(good)*len(stacks))
		}
	}
	if st := eng.LastFarmStats(); st.CacheHits != len(good)*len(stacks) || st.Executed != len(stacks) {
		t.Fatalf("rerun farm stats %+v, want %d hits and the %d failed pairs executed", st, len(good)*len(stacks), len(stacks))
	}
}
