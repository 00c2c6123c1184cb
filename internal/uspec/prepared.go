package uspec

import (
	"errors"
	"sync"
	"time"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/uhb"
)

// Per-verdict phase timing histograms. Skeleton build is observed once
// per Prepare (per model) and candidate enumeration once per EvaluateAll
// (per group of models sharing a program) — atomic-add observations
// against work that costs tens of microseconds to milliseconds. The
// cycle check is the innermost loop: it is observed only under 1-in-N
// sampling (obs.SetCycleSampling), default off, so the verdict path's
// zero-allocation/zero-format invariants hold with telemetry enabled.
const phaseHelp = "Per-verdict toolflow phase durations."

var (
	phaseSkeleton  = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "skeleton"))
	phaseEnumerate = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "enumerate"))
	phaseCycle     = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "cycle_check"))
)

// Prepared is a model × program pair compiled for repeated evaluation: the
// static µhb skeleton (node layout, pipeline/path order, execution-
// independent preserved program order, dependency and non-cumulative fence
// and AMO-annotation edges) is built exactly once, together with its port
// closure: what each node a dynamic edge can touch reaches along static
// edges. The same static run records the program's dynamic sites: the
// same-thread pairs that can alias, the cumulative fences and the lazy
// releases. Within a sweep, a program whose threads' static tiers the
// sweep has stored is assembled from them instead (PrepareTiers), into
// the same skeleton, closure, sites and coverage bits. Every execution
// candidate is then decided from its dynamic edges (coherence,
// reads-from/from-reads, and the sites' same-address refinements and
// cumulative closures) and the closure alone; its run visits no other
// pair, fence or AMO.
//
// This is the verdict path: no whole-execution graph is materialized, no
// reason or label string is ever formatted, and steady-state evaluation
// performs no per-execution graph allocation. Diagnostics (Explain,
// witness graphs, DOT) materialize a Graph via Model.BuildGraph.
//
// A Prepared is NOT safe for concurrent use: the closure, the overlay and
// the builder's site lists and scratch buffers are shared across calls.
// Each worker of a sweep prepares its own. Prepared values are pooled, and
// a Prepared owns every buffer it evaluates with: Close returns one, with
// its skeleton, closure, overlay, site lists and scratch buffers, for a
// later Prepare to reuse; Prepare rebuilds the skeleton and records its
// program's sites afresh.
type Prepared struct {
	m     *Model
	p     *isa.Program
	skel  uhb.Skeleton // the static tier, built or assembled by PrepareTiers
	ports []int32      // the nodes a dynamic edge can touch (builder.ports)
	reach []uint64     // assemble's scratch: the ports' closure rows
	cl    uhb.Closure  // skel's port closure and the current candidate's edges
	// ov holds a cyclic candidate's dynamic edges for the DFS that names
	// its witnessing cycle. Each cyclic candidate resets it.
	ov uhb.Overlay
	// b runs the axiom passes of both tiers over one set of scratch
	// buffers: Prepare's static run has the skeleton as its sink, and each
	// ExecutionObservable run binds an execution and the closure.
	b builder

	cov    Coverage // axiom attribution, accumulated across the evaluation
	cycBuf []uint32 // reused cycle-provenance buffer
}

// preparedPool recycles Close'd evaluators with their closure and builder
// scratch, so a sweep, which prepares one per (test, stack) pair, does not
// regrow the same buffers for every pair.
var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// Prepare builds the static skeleton of p under the model's axioms and
// its port closure, and returns an evaluator that streams executions
// through them. Release the result with Close when the sweep is done so it
// returns to the pool. It is PrepareTiers with no cache.
func (m *Model) Prepare(p *isa.Program) *Prepared {
	return m.PrepareTiers(p, ProgramTiers{}, 0)
}

// PrepareTiers is Prepare through a sweep's thread tiers: pt holds p's
// threads' slots (Tiers.Lookup) and mi is the model's index in the
// sweep. When every thread's tier is stored, the skeleton, closure,
// sites and static coverage bits are assembled from the tiers, with no
// static run, no Freeze and no closure pass. Otherwise p is built whole,
// as Prepare does, and the threads the sweep has now built twice store
// their tiers. Either way the result is the same as Prepare's.
func (m *Model) PrepareTiers(p *isa.Program, pt ProgramTiers, mi int) *Prepared {
	start := time.Now()
	pr := preparedPool.Get().(*Prepared)
	pr.m, pr.p = m, p
	pr.b.bind(m, p)
	pr.b.cov = &pr.cov
	if !pr.assemble(pt, mi) {
		pr.build()
		pr.split(pt, mi)
	}
	phaseSkeleton.Observe(time.Since(start))
	return pr
}

// build runs the static passes over the whole program, freezes the
// skeleton and attaches its port closure.
func (pr *Prepared) build() {
	b := &pr.b
	pr.skel.Reset(len(b.ev) * b.K)
	b.skel = &pr.skel
	b.run()
	pr.skel.Freeze()
	b.skel = nil
	for _, f := range b.fired {
		pr.cov.Fired |= f
	}
	// Post-dedup static attribution: the reasons that survived Freeze own
	// the skeleton's edges (emission set each thread's Fired bits).
	pr.skel.ForEachEdge(func(_, _ int, reason uint32) {
		pr.cov.Edges |= axiomBit(Reason(reason))
	})
	pr.ports = b.ports(pr.ports[:0])
	pr.cl.Attach(&pr.skel, pr.ports)
}

// Coverage returns the axiom-attribution bitsets accumulated so far:
// static edges since Prepare, dynamic edges and witnessing cycles across
// every execution checked through this Prepared.
func (pr *Prepared) Coverage() Coverage { return pr.cov }

// Skeleton exposes the static tier (frozen; safe to share read-only until
// Close, which keeps it for the next Prepare to rebuild).
func (pr *Prepared) Skeleton() *uhb.Skeleton { return &pr.skel }

// ExecutionObservable reports whether execution x is observable on the
// model: whether skeleton + x's dynamic edges is acyclic. The dynamic
// passes emit x's edges into the port closure, which decides the verdict
// by a DFS over the ports those edges touch (coverage attribution happens
// at emission). An acyclic candidate is done there. A cyclic one replays
// the closure's edge log, in emission order, into the overlay, and the
// overlay's DFS names the witnessing cycle whose axioms are OR-ed into
// the coverage Cycle bitset: the same edge lists as an overlay filled at
// emission, so the same cycle.
func (pr *Prepared) ExecutionObservable(x *mem.Execution) bool {
	pr.cl.Reset()
	b := &pr.b
	b.x, b.cl = x, &pr.cl
	b.run()
	b.x, b.cl = nil, nil
	if !pr.cl.HasCycle() {
		return true
	}
	pr.ov.Reset(&pr.skel)
	pr.cl.ForEachEdge(pr.ov.AddEdge)
	reasons, _ := pr.ov.HasCycleReasons(pr.cycBuf[:0])
	for _, r := range reasons {
		pr.cov.Cycle |= axiomBit(Reason(r))
	}
	pr.cycBuf = reasons
	return false
}

// Close returns the Prepared to its pool, with the skeleton, closure and
// overlay it owns. The Prepared, and the skeleton Skeleton returned, must
// not be used after; a second Close is a no-op.
func (pr *Prepared) Close() {
	if pr.m == nil {
		return
	}
	// Keep only the buffers: a pooled Prepared holds no model or program.
	// The next Prepare resets the skeleton and rebuilds the closure from
	// scratch, and its first cyclic candidate resets the overlay.
	*pr = Prepared{b: pr.b.scratch(), skel: pr.skel, ports: pr.ports[:0], reach: pr.reach[:0], cl: pr.cl, ov: pr.ov, cycBuf: pr.cycBuf[:0]}
	preparedPool.Put(pr)
}

// Evaluate computes the observable outcome set of the prepared program —
// the Figure 6 step 3 body, sharing one skeleton and one closure across
// the whole candidate enumeration. It is EvaluateAll's one-model case,
// and it also fills the result's All and Observable maps.
func (pr *Prepared) Evaluate() (*Result, error) {
	rs, err := EvaluateAll([]*Prepared{pr})
	if err != nil {
		return nil, err
	}
	r := rs[0]
	r.All = make(map[mem.Outcome]bool, len(r.Outcomes))
	for _, o := range r.Outcomes {
		r.All[o] = true
	}
	r.Observable = make(map[mem.Outcome]bool, len(r.Observed))
	for _, id := range r.Observed {
		r.Observable[r.Outcomes[id]] = true
	}
	return r, nil
}

// knownPool recycles EvaluateAll's known-observable tables.
var knownPool = sync.Pool{New: func() any { return new([]bool) }}

// EvaluateAll evaluates several models over one compiled program in a
// single candidate enumeration: every Prepared must have been prepared
// on the same program. Each candidate execution is enumerated and its
// outcome interned once, then offered to every model under that model's
// own skip-if-known-observable rule, so each model sees exactly the
// candidate sequence — and keeps exactly the skeleton, closure, witnessing
// cycles, coverage and Graphs count — it would alone. The
// scratch execution and the outcome ids are shared, which is why
// ExecutionObservable must never mutate its argument.
//
// Results are returned in prs order, in the id view only: they share one
// Outcomes list, and each one's Observed is carved from one array. No
// outcome map is built here; step 4 builds the ones a sweep keeps.
func EvaluateAll(prs []*Prepared) ([]*Result, error) {
	if len(prs) == 0 {
		return nil, nil
	}
	p := prs[0].p
	for _, pr := range prs[1:] {
		if pr.p != p {
			return nil, errors.New("uspec: EvaluateAll over models prepared on different programs")
		}
	}
	start := time.Now()
	k := len(prs)
	res := make([]Result, k)
	// Outcomes are interned: the per-candidate bookkeeping runs on dense
	// ids against a flat known-observable table (row id, column model).
	// Ids are assigned in first-seen order, so the skip logic — and
	// therefore every Graphs counter — is bit-identical to a map-based
	// loop.
	cache := mem.AcquireOutcomeCache(p.Mem())
	defer mem.ReleaseOutcomeCache(cache)
	known := knownPool.Get().(*[]bool)
	defer knownPool.Put(known)
	*known = (*known)[:0]
	candidates := 0
	// The innermost loop stays untimed unless cycle sampling is on: a
	// single atomic load per checked graph decides, and only every Nth
	// check pays for two monotonic clock reads.
	sampleN := uint64(obs.CycleSampling())
	err := mem.Enumerate(p.Mem(), func(x *mem.Execution) bool {
		candidates++
		_, id := cache.Lookup(x)
		if id*k == len(*known) {
			for range prs {
				*known = append(*known, false)
			}
		}
		row := (*known)[id*k : id*k+k]
		for i, pr := range prs {
			if row[i] {
				continue // this outcome is already known observable here
			}
			res[i].Graphs++
			if sampleN > 0 && uint64(res[i].Graphs)%sampleN == 0 {
				t0 := time.Now()
				row[i] = pr.ExecutionObservable(x)
				phaseCycle.Observe(time.Since(t0))
				continue
			}
			row[i] = pr.ExecutionObservable(x)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	outs := append([]mem.Outcome(nil), cache.Outcomes()...)
	ids := make([]int, 0, k*len(outs))
	out := make([]*Result, k)
	for i := range res {
		r := &res[i]
		r.Candidates, r.Outcomes = candidates, outs
		from := len(ids)
		for id := range outs {
			if (*known)[id*k+i] {
				ids = append(ids, id)
			}
		}
		r.Observed = ids[from:len(ids):len(ids)]
		out[i] = r
	}
	phaseEnumerate.Observe(time.Since(start))
	return out, nil
}
