// Package core implements the TriCheck engine: the four-step toolflow of
// the paper's Figure 6.
//
//  1. HLL AXIOMATIC EVALUATION — run the C11 litmus test on the C11 model
//     (internal/c11) to classify every candidate outcome as permitted or
//     forbidden.
//  2. HLL→ISA COMPILATION — lower the test through a compiler mapping
//     (internal/compile).
//  3. ISA µSPEC EVALUATION — run the compiled test on a microarchitecture
//     model (internal/uspec) to classify every outcome as observable or
//     unobservable; the Backend picks the µhb solver, the operational
//     simulator (internal/opsim), or both over the same compiled program.
//  4. EQUIVALENCE CHECK — compare: an outcome forbidden by the HLL yet
//     observable is a Bug; permitted yet unobservable is Overly Strict;
//     otherwise the stack is Equivalent on this test. Under BackendBoth a
//     disagreement between the two step-3 sets is a Divergence.
//
// Engine.evaluate is the one implementation of this pipeline, for every
// backend, and a sweep is its one caller: Run is a sweep of one pair. A
// sweep over many (mapping, model) stacks — as Figure 15 does — pays for
// each test's C11 evaluation once, shared by the test's groups for as
// long as the sweep runs, and runs each test's compilation and candidate
// enumeration once per mapping, for every model that shares it.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/cover"
	"tricheck/internal/farm"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/opsim"
	"tricheck/internal/uspec"
)

// Stack is one full-stack configuration: a compiler mapping plus a
// microarchitecture model (the ISA MCM is embodied in both).
type Stack struct {
	Mapping *compile.Mapping
	Model   *uspec.Model
}

// Name renders the stack for reports.
func (s Stack) Name() string {
	return fmt.Sprintf("%s+%s", s.Mapping.Name, s.Model.FullName())
}

// Verdict classifies a test against a stack (Figure 6's comparison matrix).
type Verdict uint8

// Verdicts, ordered by severity.
const (
	// Equivalent: observable outcomes exactly match C11-permitted ones.
	Equivalent Verdict = iota
	// OverlyStrict: no bug, but some C11-permitted outcome is
	// unobservable (lost performance/flexibility, not a correctness bug).
	OverlyStrict
	// Bug: some C11-forbidden outcome is observable on the implementation.
	Bug
	// Divergence: the axiomatic and operational backends disagree on the
	// observable set (BackendBoth only) — the implementations of the two
	// semantics contradict each other, which outranks any single-engine
	// verdict.
	Divergence
)

// String names the verdict like the paper's charts.
func (v Verdict) String() string {
	switch v {
	case Divergence:
		return "Divergence"
	case Bug:
		return "Bug"
	case OverlyStrict:
		return "OverlyStrict"
	default:
		return "Equivalent"
	}
}

// TestResult is the full-stack verdict for one litmus test. Its maps and
// slices are shared with the memo cache and with the other stacks of its
// (test, mapping) group that observe the same outcomes, and Observable
// may be C11's Allowed or All map (see Memo), so all of them are
// read-only. A sweep's results are carved from one slab.
type TestResult struct {
	Test  *litmus.Test
	Stack Stack
	// Allowed is C11's permitted outcome set; Observable the µspec model's.
	Allowed    map[mem.Outcome]bool
	Observable map[mem.Outcome]bool
	// BugOutcomes are forbidden-yet-observable; StrictOutcomes are
	// permitted-yet-unobservable. Sorted for determinism.
	BugOutcomes    []mem.Outcome
	StrictOutcomes []mem.Outcome
	Verdict        Verdict
	// SpecifiedBug reports whether the test's designated interesting
	// outcome is itself forbidden-yet-observable (the counting used for
	// the paper's headline "144 outcomes ... out of 1,701 tests").
	SpecifiedBug bool
	// SpecifiedAllowed / SpecifiedObservable classify the designated
	// outcome on each side.
	SpecifiedAllowed    bool
	SpecifiedObservable bool
	// Racy reports HLL undefined behaviour (every outcome then allowed).
	Racy bool
	// Opsim is the operational backend's side of the verdict: present for
	// BackendOpsim (the enumerated set) and BackendBoth (the cross-check
	// diff and witness); nil on the default uhb backend.
	Opsim *OpsimMemo
}

// Engine runs the toolflow. Across sweeps it keeps its counters, its
// coverage ledger and, when enabled, the memo cache of (test, stack)
// verdicts and the cost matrix; a test's C11 evaluation lives for one
// sweep.
type Engine struct {
	mu sync.Mutex
	// memo is the optional (test, stack) result cache shared with the
	// verification farm; nil until EnableMemo.
	memo *farm.Cache[string, *Memo]
	// execs counts actual verifier executions (toolflow steps 2–3), i.e.
	// jobs that were neither deduplicated nor satisfied from the cache.
	execs atomic.Uint64
	// divergences counts executed BackendBoth jobs whose axiomatic and
	// operational observable sets disagreed.
	divergences atomic.Uint64
	// lastFarm records the statistics of the most recent farm run.
	lastFarm farm.Stats
	// costs is the per-(test, stack) cost matrix (see obs.go), fed by
	// every job executed after EnableCostMatrix; costMu guards it.
	costsOn atomic.Bool
	costMu  sync.Mutex
	costs   map[costKey]*JobCost
	// ledger is the verification-coverage ledger (internal/cover): the
	// per-(model, axiom) fired/edge/cycle matrix fed by every executed
	// job, and the (test, config) verdict vectors fed by every result —
	// executed or memoized. The ledger says what the verification
	// exercised; the cost matrix, when on, says where the time went.
	ledger *cover.Ledger
}

// NewEngine returns an Engine with no memo cache and no cost matrix.
func NewEngine() *Engine {
	return &Engine{ledger: cover.NewLedger(uspec.AxiomNames(), verdictNames())}
}

// Coverage returns the engine's verification-coverage ledger.
func (e *Engine) Coverage() *cover.Ledger { return e.ledger }

// HLL runs step 1, the C11 evaluation of a test, and observes the hll
// phase. It caches nothing: within a sweep a test's groups share one
// evaluation through their hllSlot, and every other call evaluates.
func (e *Engine) HLL(t *litmus.Test) (*c11.Result, error) {
	start := time.Now()
	r, err := c11.Evaluate(t.Prog)
	phaseHLL.Observe(time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("core: HLL evaluation of %s: %w", t.Name, err)
	}
	return r, nil
}

// hllSlot is one sweep's singleflight slot for one test's C11
// evaluation: the first of the test's groups to run evaluates, and
// concurrent groups wait on the same Once instead of re-running (and
// racing on) the shared program. The sweep drops its slots when it ends.
type hllSlot struct {
	once sync.Once
	r    *c11.Result
	err  error
}

// get returns the test's C11 evaluation and the time this call spent
// evaluating it: the evaluation's wall time for the group that ran it,
// and zero for a group that found it done or waited on another's run.
func (s *hllSlot) get(e *Engine, t *litmus.Test) (*c11.Result, time.Duration, error) {
	var ran time.Duration
	s.once.Do(func() {
		start := time.Now()
		s.r, s.err = e.HLL(t)
		ran = time.Since(start)
	})
	return s.r, ran, s.err
}

// Run executes toolflow steps 1–4 for one test and stack, consulting the
// memo cache when one is enabled. Every result — executed or memoized —
// records its (test, config) verdict vector in the coverage ledger.
func (e *Engine) Run(t *litmus.Test, s Stack) (*TestResult, error) {
	return e.RunBackend(t, s, BackendUHB)
}

// RunBackend is Run on an explicit backend: a one-pair sweep, so its
// memo key, ledger record and farm statistics are a sweep's.
func (e *Engine) RunBackend(t *litmus.Test, s Stack, b Backend) (*TestResult, error) {
	srs, err := e.SweepStreamBackend(context.Background(), []*litmus.Test{t}, []Stack{s}, 1, b, nil)
	if err != nil {
		return nil, err
	}
	return srs[0].Results[0], nil
}

// member is one stack of a group job, with its display names computed
// once per sweep so that job thunks never format.
type member struct {
	stack       Stack
	name, model string
	mi          int // the model's index in the sweep's thread tiers
}

func newMember(s Stack) member {
	return member{stack: s, name: s.Name(), model: s.Model.FullName()}
}

// group is the farm's unit of work: one test and the stacks of a sweep
// that share its compiler mapping and still need executing. The mapping
// alone fixes the compiled program, its candidate executions and their
// outcome ids, so a group compiles and enumerates once for all of its
// members. A sweep lays every group's pairs and members out in one array
// each, and the members point into the sweep's table of stacks.
type group struct {
	test    *litmus.Test
	hll     *hllSlot     // the test's C11 slot, shared with its other groups
	tiers   *uspec.Tiers // the sweep's thread tiers; nil in a one-group sweep
	pairs   []int        // the members' sweep pair indexes
	members []*member    // the members' stacks, in pairs order
}

// evaluate runs toolflow steps 1–4 unconditionally for every member of
// a group and returns one portable verdict per member, in member order.
// It is the farm's job thunk and the single exit point of every
// executed (test, stack) pair, whatever the backend: steps 1–2 run once
// per group, and each member's execution count, ledger record, verdict
// counter and (when on) cost-matrix cell are recorded once.
//
// Step 3 runs on the backend's engine(s), over the one compiled program:
//
//   - µhb (uhb, both): each member's model prepares the program's static
//     skeleton and port closure exactly once, assembled from the sweep's
//     thread tiers when it has them all (uspec.PrepareTiers), and one
//     candidate enumeration streams every execution through all the members
//     (uspec.EvaluateAll), so a sweep's per-execution cost is dynamic
//     edges plus an allocation-free cycle check per model. Step 4 then
//     runs once for the group, on the enumeration's outcome ids
//     (compare), which builds the outcome maps: members with equal ids
//     share one memo, and the memos share C11's maps where the sets are
//     equal. Read-only, like every memo.
//   - operational (opsim, both): the config-matched simulator explores
//     every interleaving, per member. Under opsim its reachable set
//     stands in for the µhb observable set in step 4; under both it is a
//     second opinion, and any disagreement upgrades the µhb verdict to
//     Divergence with the diff and a witness attached (crossCheck), on a
//     copy of the member's memo, which is then its own. A
//     config outside the simulators' capability degrades to a skip note
//     under both — "cross-check where you can" — rather than an error.
//
// Telemetry: each phase is wall-timed into the verdict-phase histograms
// (hll once per C11 evaluation; compile and enumerate once per group;
// skeleton once per model; opsim once per member). When the engine
// records costs (EnableCostMatrix), each member's cost-matrix cell
// keeps its own skeleton, simulator, candidate and graph figures, and
// takes an even share of the group's shared time
// (HLL, compile, the enumeration with its interleaved cycle checks, and
// the rest), so the cells' Totals add up to the group's wall time. HLL
// is the C11 evaluation only in the group that ran it: a group that
// found it done, or waited on another worker's run, charges no HLL,
// and its wait stays in Total. 1-in-N executed groups
// (obs.SetVerdictSampling) additionally carry an obs.Span — tagged with
// the sweep's trace when one is on the context — that lands in the
// slow-trace ring.
//
// Coverage: each member's axiom bitsets (uspec.Coverage, accumulated by
// its Prepared across the skeleton build and every candidate execution)
// fold into the ledger's per-model matrix, cycle-witnessed bits included
// on every verdict; an opsim-only job records its verdict with no axiom
// bits. A witnessing (forbidding) cycle is what carves the observable
// set, so its axioms are the provenance of every outcome the model
// refused — note that the paper's buggy weak configs typically reach
// their Bug verdicts with *zero* cycles (they observe everything; that
// is the bug), so the cycle column is populated by the configs that
// still forbid something.
func (e *Engine) evaluate(g *group, b Backend, trace obs.TraceID, parent obs.SpanID) ([]*Memo, error) {
	t, mapping := g.test, g.members[0].stack.Mapping
	var sp *obs.Span
	if obs.SampleVerdict() {
		sp = obs.DefaultTraces.Start(trace, parent, "verdict")
		sp.Attr("test", t.Name)
		for _, mb := range g.members {
			sp.Attr("stack", mb.name)
		}
	}
	jobStart := time.Now()
	hll, hllTime, err := g.hll.get(e, t) // step 1
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	prog, err := compile.Compile(mapping, t.Prog) // step 2
	compileTime := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("core: compiling %s with %s: %w", t.Name, mapping.Name, err)
	}
	// The verdicts use only outcome sets, so the compiled program dies
	// with the job: recycle its arenas for the next one.
	defer compile.ReleaseProgram(prog)

	k := len(g.members)
	var memos []*Memo
	covs := make([]uspec.Coverage, k)
	// Per-member cells only when the engine records costs: a sweep
	// otherwise keeps nothing per pair beyond its verdict.
	var costs []JobCost
	if e.costsOn.Load() {
		costs = make([]JobCost, k)
	}
	var skelTime, enumTime, opsimTime time.Duration
	if b != BackendOpsim { // step 3 on the µhb models
		prs := make([]*uspec.Prepared, k)
		pt := g.tiers.Lookup(prog) // the threads' slots, once for all members
		// Only the cost matrix and a sampled span read a member's skeleton
		// time; Prepare times itself for the phase histogram.
		timed := costs != nil || sp != nil
		for i, mb := range g.members {
			if !timed {
				prs[i] = mb.stack.Model.PrepareTiers(prog, pt, mb.mi) // skeleton once per model
				continue
			}
			t2 := time.Now()
			prs[i] = mb.stack.Model.PrepareTiers(prog, pt, mb.mi)
			d := time.Since(t2)
			skelTime += d
			if costs != nil {
				costs[i].Skeleton = d
			}
		}
		t3 := time.Now()
		isaRes, err := uspec.EvaluateAll(prs) // one enumeration for all
		enumTime = time.Since(t3)
		for i, pr := range prs {
			covs[i] = pr.Coverage()
			pr.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("core: µspec evaluation of %s on %s: %w", t.Name, g.members[0].model, err)
		}
		for i := range costs {
			costs[i].Candidates, costs[i].Graphs = isaRes[i].Candidates, isaRes[i].Graphs
		}
		memos = compare(hll, isaRes)
	} else {
		memos = make([]*Memo, k)
	}
	if b != BackendUHB { // step 3 on the operational machines
		for i, mb := range g.members {
			if memos[i] != nil {
				// Members with equal ids share one µhb memo; the opsim side
				// written below is this member's own.
				m := *memos[i]
				memos[i] = &m
			}
			t4 := time.Now()
			sim, err := opsim.ForConfig(mb.stack.Model.Config, prog)
			var capErr *opsim.CapabilityError
			switch {
			case b == BackendBoth && errors.As(err, &capErr):
				memos[i].Opsim = &OpsimMemo{Skipped: capErr.Reason}
			case err != nil:
				return nil, err
			default:
				out := sim.Outcomes()
				op := &OpsimMemo{Observable: sortedOutcomeSet(out), States: sim.StateCount()}
				if memos[i] == nil {
					memos[i] = compare(hll, []*uspec.Result{reached(op.Observable, out)})[0]
				} else if crossCheck(op, memos[i].Observable, out, sim) {
					memos[i].Verdict = Divergence
				}
				memos[i].Opsim = op
				d := time.Since(t4)
				opsimTime += d
				phaseOpsim.Observe(d)
				if costs != nil {
					costs[i].Opsim = d
				}
			}
		}
	}

	phaseCompile.Observe(compileTime)
	for i, mb := range g.members {
		m := memos[i]
		e.execs.Add(1)
		if m.Verdict == Divergence {
			e.divergences.Add(1)
		}
		verdictCounters[m.Verdict].Inc()
		e.ledger.Model(mb.model).Record(int(m.Verdict), covs[i].Fired, covs[i].Edges, covs[i].Cycle)
	}
	if costs != nil {
		n := time.Duration(k)
		shared := (time.Since(jobStart) - skelTime - opsimTime) / n
		for i, mb := range g.members {
			c := &costs[i]
			c.Test, c.Family, c.Stack, c.Count = t.Name, t.Shape.Name, mb.name, 1
			c.HLL, c.Compile, c.Enumerate = hllTime/n, compileTime/n, enumTime/n
			c.Total = shared + c.Skeleton + c.Opsim
			e.recordCost(*c)
		}
	}
	if sp != nil {
		sp.Phase("hll", hllTime)
		sp.Phase("compile", compileTime)
		if b != BackendOpsim {
			sp.Phase("skeleton", skelTime)
			sp.Phase("enumerate", enumTime)
		}
		if b != BackendUHB {
			sp.Phase("opsim", opsimTime)
		}
		for _, m := range memos {
			sp.Attr("verdict", m.Verdict.String())
		}
		sp.End()
	}
	return memos, nil
}

// Executions returns the number of verifier executions (toolflow steps
// 2–3 actually run) performed by this engine so far. Deduplicated jobs
// and memo-cache hits do not execute.
func (e *Engine) Executions() uint64 { return e.execs.Load() }

// Divergences returns the number of executed BackendBoth jobs whose
// axiomatic and operational observable sets disagreed.
func (e *Engine) Divergences() uint64 { return e.divergences.Load() }

// compare is step 4, the equivalence check, for the members of one
// group, in portable form. rs are the members' ISA-side evaluations over
// one outcome numbering: rs[0].Outcomes lists the candidate outcomes by
// id, and each rs[i].Observed lists the ids member i observes. C11's
// verdict on each outcome is looked up once per group, not once per
// member: the step-4 universe is every candidate outcome plus the
// C11-only remainder, the outcomes C11 allows that no candidate reaches,
// which every member misses and so finds strict. The universe is sorted
// once, so each member's classification is one walk over its id row and
// comes out sorted.
//
// compare is also where a sweep's Observable maps are made, one per
// distinct id row. Members with equal ids share one memo. An Equivalent
// row observes exactly C11's allowed set, so it holds C11's Allowed. A
// row that observes every candidate holds the group's candidate map:
// C11's All when the two universes are equal, else rs[0].All when the
// caller has one, else a map built once per group, which also serves
// the remainder check. Any other row gets a new map.
func compare(hll *c11.Result, rs []*uspec.Result) []*Memo {
	outs := rs[0].Outcomes
	type cell struct {
		o       mem.Outcome
		id      int // -1 for the C11-only remainder
		allowed bool
	}
	universe := make([]cell, len(outs))
	allowedCandidates, c11Candidates := 0, 0
	for id, o := range outs {
		universe[id] = cell{o, id, hll.Allowed[o]}
		if universe[id].allowed {
			allowedCandidates++
		}
		if hll.All[o] {
			c11Candidates++
		}
	}
	all := rs[0].All
	if c11Candidates == len(outs) && len(hll.All) == len(outs) {
		all = hll.All
	}
	candidateSet := func() map[mem.Outcome]bool {
		if all == nil {
			all = make(map[mem.Outcome]bool, len(outs))
			for _, o := range outs {
				all[o] = true
			}
		}
		return all
	}
	// Allowed holds only true entries, so there is a remainder exactly
	// when some of them are not candidates.
	if allowedCandidates < len(hll.Allowed) {
		candidates := candidateSet()
		for o := range hll.Allowed {
			if !candidates[o] {
				universe = append(universe, cell{o, -1, true})
			}
		}
	}
	slices.SortFunc(universe, func(a, b cell) int { return cmp.Compare(a.o, b.o) })

	memos := make([]*Memo, len(rs))
	seen := make([]bool, len(outs))
	for i, r := range rs {
		if j := slices.IndexFunc(rs[:i], func(q *uspec.Result) bool { return slices.Equal(q.Observed, r.Observed) }); j >= 0 {
			memos[i] = memos[j]
			continue
		}
		m := &Memo{Allowed: hll.Allowed, Racy: hll.Racy}
		for _, id := range r.Observed {
			seen[id] = true
		}
		for _, c := range universe {
			observed := c.id >= 0 && seen[c.id]
			switch {
			case observed && !c.allowed:
				m.BugOutcomes = append(m.BugOutcomes, c.o)
			case c.allowed && !observed:
				m.StrictOutcomes = append(m.StrictOutcomes, c.o)
			}
		}
		for _, id := range r.Observed {
			seen[id] = false
		}
		switch {
		case len(m.BugOutcomes) > 0:
			m.Verdict = Bug
		case len(m.StrictOutcomes) > 0:
			m.Verdict = OverlyStrict
		default:
			m.Verdict = Equivalent
		}
		switch {
		case m.Verdict == Equivalent:
			m.Observable = hll.Allowed
		case len(r.Observed) == len(outs):
			m.Observable = candidateSet()
		default:
			m.Observable = make(map[mem.Outcome]bool, len(r.Observed))
			for _, id := range r.Observed {
				m.Observable[outs[id]] = true
			}
		}
		memos[i] = m
	}
	return memos
}

// reached puts an operational machine's reachable set, sorted and as a
// map, into step 4's id view. The machine enumerates only reachable
// states, so its candidates are the outcomes it reaches, every one of
// them observed; compare's C11-only remainder covers the rest, and the
// set's map is the group's candidate map.
func reached(outs []mem.Outcome, set map[mem.Outcome]bool) *uspec.Result {
	ids := make([]int, len(outs))
	for i := range ids {
		ids[i] = i
	}
	return &uspec.Result{All: set, Outcomes: outs, Observed: ids}
}

func sortOutcomes(os []mem.Outcome) {
	// Insertion sort: verdict outcome lists hold a handful of entries,
	// and sort.Slice's reflection setup costs more than the sort.
	for i := 1; i < len(os); i++ {
		for j := i; j > 0 && os[j] < os[j-1]; j-- {
			os[j], os[j-1] = os[j-1], os[j]
		}
	}
}

// Tally counts verdicts.
type Tally struct {
	Total, Bugs, Strict, Equivalent int
	// Divergent counts BackendBoth cross-check disagreements (zero on
	// single-backend runs).
	Divergent int
	// SpecifiedBugs counts tests whose designated outcome was
	// forbidden-yet-observable (the paper's headline counting).
	SpecifiedBugs int
}

// Add accumulates one result.
func (t *Tally) Add(r *TestResult) {
	t.Total++
	switch r.Verdict {
	case Divergence:
		t.Divergent++
	case Bug:
		t.Bugs++
	case OverlyStrict:
		t.Strict++
	default:
		t.Equivalent++
	}
	if r.SpecifiedBug {
		t.SpecifiedBugs++
	}
}

// SuiteResult aggregates a suite run on one stack.
type SuiteResult struct {
	Stack    Stack
	Results  []*TestResult
	Tally    Tally
	ByFamily map[string]*Tally
}

// FamilyNames returns the family keys in sorted order.
func (s *SuiteResult) FamilyNames() []string {
	var names []string
	for n := range s.ByFamily {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunSuite runs every test against the stack on the verification farm
// with the given parallelism (0 = GOMAXPROCS). Results keep the input
// order.
func (e *Engine) RunSuite(tests []*litmus.Test, s Stack, workers int) (*SuiteResult, error) {
	rs, err := e.SweepStream(tests, []Stack{s}, workers, nil)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Sweep runs the suite over many stacks as one farm run: all
// (test, stack) jobs are fingerprinted, deduplicated and sharded over
// the worker pool together, so a slow stack steals capacity from
// finished ones instead of serializing the sweep.
func (e *Engine) Sweep(tests []*litmus.Test, stacks []Stack, workers int) ([]*SuiteResult, error) {
	return e.SweepStream(tests, stacks, workers, nil)
}

// RISCVStacks builds the paper's Figure 15 stack matrix for one ISA flavour
// (base or Base+A) and MCM version (riscv-curr pairs the intuitive mapping
// with Curr models; riscv-ours pairs the refined mapping with Ours models).
// The models are the registry's shared Table 7 instances.
func RISCVStacks(base bool, variant uspec.Variant) []Stack {
	m := riscvMapping(base, variant)
	var out []Stack
	for _, model := range uspec.Models(variant) {
		out = append(out, Stack{Mapping: m, Model: model})
	}
	return out
}

// Diagnose explains a result's first bug (or strict) outcome by extracting
// a µhb witness or cycle — the information a designer uses in the
// REFINEMENT step of Figure 6.
func (e *Engine) Diagnose(r *TestResult) (string, error) {
	prog, err := compile.Compile(r.Stack.Mapping, r.Test.Prog)
	if err != nil {
		return "", err
	}
	var target mem.Outcome
	var kind string
	switch {
	case len(r.BugOutcomes) > 0:
		target, kind = r.BugOutcomes[0], "bug (forbidden by C11, observable on hardware)"
	case len(r.StrictOutcomes) > 0:
		target, kind = r.StrictOutcomes[0], "overly strict (allowed by C11, unobservable)"
	default:
		return fmt.Sprintf("%s on %s: equivalent", r.Test.Name, r.Stack.Name()), nil
	}
	t0 := time.Now()
	_, why, err := r.Stack.Model.Explain(prog, target)
	phaseDiagnostics.Observe(time.Since(t0))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s on %s: %s outcome %q\n  %s", r.Test.Name, r.Stack.Name(), kind, target, why), nil
}
