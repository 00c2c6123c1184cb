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
// backend. The Engine caches step 1 per test so that sweeping many
// (mapping, model) stacks — as Figure 15 does — pays for the C11
// evaluation once, and runs each test's compilation and candidate
// enumeration once per mapping, for every model that shares it.
package core

import (
	"cmp"
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
// slices are shared with the memo cache, and Observable also with the
// other stacks of its (test, mapping) group that observe the same
// outcomes, so all of them are read-only.
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

// Engine runs the toolflow. It caches HLL evaluations across stacks
// (keyed by canonical test fingerprint) and, when a memo cache is
// enabled, full (test, stack) verdicts across sweeps.
type Engine struct {
	mu  sync.Mutex
	hll map[string]*hllEntry
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

// NewEngine returns an Engine with an empty HLL cache, no memo cache and
// no cost matrix.
func NewEngine() *Engine {
	return &Engine{
		hll:    map[string]*hllEntry{},
		ledger: cover.NewLedger(uspec.AxiomNames(), verdictNames()),
	}
}

// Coverage returns the engine's verification-coverage ledger.
func (e *Engine) Coverage() *cover.Ledger { return e.ledger }

// hllEntry is one singleflight slot of the HLL cache: the first caller
// evaluates, concurrent callers for the same fingerprint wait on the
// same Once instead of re-running (and racing on) the shared program.
type hllEntry struct {
	once sync.Once
	r    *c11.Result
	err  error
}

// HLL returns the (cached) step-1 C11 evaluation of a test. The cache is
// keyed by the test's canonical fingerprint, so structurally identical
// tests — e.g. a generated test and its corpus round trip — share one
// evaluation regardless of naming, and concurrent farm workers hitting
// the same test evaluate it exactly once.
func (e *Engine) HLL(t *litmus.Test) (*c11.Result, error) {
	r, _, err := e.hllTimed(t)
	return r, err
}

// hllTimed is HLL that also returns the time this call spent in
// c11.Evaluate: the evaluation's wall time for the caller that ran it,
// and zero for a cache hit or a wait on another caller's evaluation. The
// hll phase histogram observes each evaluation once.
func (e *Engine) hllTimed(t *litmus.Test) (*c11.Result, time.Duration, error) {
	key := t.Fingerprint()
	e.mu.Lock()
	ent, ok := e.hll[key]
	if !ok {
		ent = &hllEntry{}
		e.hll[key] = ent
	}
	e.mu.Unlock()
	var ran time.Duration
	ent.once.Do(func() {
		start := time.Now()
		r, err := c11.Evaluate(t.Prog)
		ran = time.Since(start)
		phaseHLL.Observe(ran)
		if err != nil {
			ent.err = fmt.Errorf("core: HLL evaluation of %s: %w", t.Name, err)
			return
		}
		ent.r = r
	})
	return ent.r, ran, ent.err
}

// Run executes toolflow steps 1–4 for one test and stack, consulting the
// memo cache when one is enabled. Every result — executed or memoized —
// records its (test, config) verdict vector in the coverage ledger.
func (e *Engine) Run(t *litmus.Test, s Stack) (*TestResult, error) {
	return e.RunBackend(t, s, BackendUHB)
}

// RunBackend is Run on an explicit backend; memo keys are backend-tagged
// so the backends never share cache entries. An executed Run is a group
// of one.
func (e *Engine) RunBackend(t *litmus.Test, s Stack, b Backend) (*TestResult, error) {
	m, err := e.run(t, s, b)
	if err != nil {
		return nil, err
	}
	e.ledger.RecordVector(t.Name, s.Name(), uint8(m.Verdict))
	return m.Bind(t, s), nil
}

func (e *Engine) run(t *litmus.Test, s Stack, b Backend) (*Memo, error) {
	var key string
	if e.memo != nil {
		key = JobKeyBackend(t, s, b)
		if m, ok := e.memo.Get(key); ok {
			return m, nil
		}
	}
	ms, err := e.evaluate(group{test: t, members: []member{newMember(s)}}, b, 0, 0)
	if err != nil {
		return nil, err
	}
	if e.memo != nil {
		e.memo.Put(key, ms[0])
	}
	return ms[0], nil
}

// member is one stack of a group job, with its display names computed
// once per sweep so that job thunks never format.
type member struct {
	stack       Stack
	name, model string
}

func newMember(s Stack) member {
	return member{stack: s, name: s.Name(), model: s.Model.FullName()}
}

// group is the farm's unit of work: one test and the stacks of a sweep
// that share its compiler mapping and still need executing. The mapping
// alone fixes the compiled program, its candidate executions and their
// outcome ids, so a group compiles and enumerates once for all of its
// members.
type group struct {
	test    *litmus.Test
	members []member
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
//     skeleton exactly once, and one candidate enumeration streams every
//     execution through all the members' pooled overlays
//     (uspec.EvaluateAll), so a sweep's per-execution cost is dynamic
//     edges plus an allocation-free cycle check per model. Step 4 then
//     runs once for the group, on the enumeration's outcome ids
//     (compare), and the returned memos share the Observable maps that
//     EvaluateAll shares: read-only, like every memo.
//   - operational (opsim, both): the config-matched simulator explores
//     every interleaving, per member. Under opsim its reachable set
//     stands in for the µhb observable set in step 4; under both it is a
//     second opinion, and any disagreement upgrades the µhb verdict to
//     Divergence with the diff and a witness attached (crossCheck). A
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
// found it cached, or waited on another worker's run, charges no HLL,
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
func (e *Engine) evaluate(g group, b Backend, trace obs.TraceID, parent obs.SpanID) ([]*Memo, error) {
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
	hll, hllTime, err := e.hllTimed(t) // step 1
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
		for i, mb := range g.members {
			t2 := time.Now()
			prs[i] = mb.stack.Model.Prepare(prog) // skeleton once per model
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
// id and rs[0].All holds the same set, and each rs[i].Observed lists the
// ids member i observes. C11's verdict on each outcome is looked up once
// per group, not once per member: the step-4 universe is every candidate
// outcome plus the C11-only remainder, the outcomes C11 allows that no
// candidate reaches, which every member misses and so finds strict. The
// universe is sorted once, so each member's classification is one walk
// over its id row and comes out sorted. Members with equal ids get equal
// verdicts, computed once.
func compare(hll *c11.Result, rs []*uspec.Result) []*Memo {
	outs, all := rs[0].Outcomes, rs[0].All
	type cell struct {
		o       mem.Outcome
		id      int // -1 for the C11-only remainder
		allowed bool
	}
	universe := make([]cell, len(outs))
	allowedCandidates := 0
	for id, o := range outs {
		universe[id] = cell{o, id, hll.Allowed[o]}
		if universe[id].allowed {
			allowedCandidates++
		}
	}
	// Allowed holds only true entries, so there is a remainder exactly
	// when some of them are not candidates.
	if allowedCandidates < len(hll.Allowed) {
		for o := range hll.Allowed {
			if !all[o] {
				universe = append(universe, cell{o, -1, true})
			}
		}
	}
	slices.SortFunc(universe, func(a, b cell) int { return cmp.Compare(a.o, b.o) })

	memos := make([]*Memo, len(rs))
	seen := make([]bool, len(outs))
	for i, r := range rs {
		if j := slices.IndexFunc(rs[:i], func(q *uspec.Result) bool { return slices.Equal(q.Observed, r.Observed) }); j >= 0 {
			m := *memos[j]
			memos[i] = &m
			continue
		}
		m := &Memo{Allowed: hll.Allowed, Observable: r.Observable, Racy: hll.Racy}
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
		memos[i] = m
	}
	return memos
}

// reached puts an operational machine's reachable set, sorted and as a
// map, into step 4's id view. The machine enumerates only reachable
// states, so its candidates are the outcomes it reaches, every one of
// them observed; compare's C11-only remainder covers the rest.
func reached(outs []mem.Outcome, set map[mem.Outcome]bool) *uspec.Result {
	ids := make([]int, len(outs))
	for i := range ids {
		ids[i] = i
	}
	return &uspec.Result{Observable: set, All: set, Outcomes: outs, Observed: ids}
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
