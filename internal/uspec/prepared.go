package uspec

import (
	"errors"
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
// overlay cycle check is the innermost loop: it is observed only under
// 1-in-N sampling (obs.SetCycleSampling), default off, so the PR-3
// zero-allocation/zero-format verdict-path invariants hold with
// telemetry enabled.
const phaseHelp = "Per-verdict toolflow phase durations."

var (
	phaseSkeleton  = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "skeleton"))
	phaseEnumerate = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "enumerate"))
	phaseCycle     = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "cycle_check"))

	// Incremental-engine effectiveness: how many candidate verdicts
	// reused the maintained topological order versus paid a from-scratch
	// rebuild (first candidate of each prepared evaluation). Accumulated
	// per Prepared and flushed on Close to keep the innermost loop free
	// of atomics.
	incrReuse   = obs.Default.Counter("tricheck_uhb_incremental_reuse_total", "Candidate acyclicity verdicts that reused the incremental topological order.")
	incrRebuild = obs.Default.Counter("tricheck_uhb_incremental_rebuild_total", "Candidate acyclicity verdicts that rebuilt the topological order from scratch.")
)

// IncrementalStats returns the process-wide incremental-engine counters
// (verdicts that reused the maintained order vs. rebuilt it), for the
// `tricheck top` report; /metrics exports the same two counters.
func IncrementalStats() (reuse, rebuild uint64) {
	return incrReuse.Value(), incrRebuild.Value()
}

// Prepared is a model × program pair compiled for repeated evaluation: the
// static µhb skeleton (node layout, pipeline/path order, execution-
// independent preserved program order, dependency and non-cumulative fence
// and AMO-annotation edges) is built exactly once, and every execution
// candidate is then checked by layering its dynamic edges (coherence,
// reads-from/from-reads, same-address refinements, cumulative closures)
// onto the skeleton through a pooled, resettable overlay.
//
// This is the verdict path: no whole-execution graph is materialized, no
// reason or label string is ever formatted, and steady-state evaluation
// performs no per-execution graph allocation. Diagnostics (Explain,
// witness graphs, DOT) materialize a Graph via Model.BuildGraph.
//
// A Prepared is NOT safe for concurrent use: the overlay and the dynamic
// builder's scratch buffers are shared across calls. Each worker of a
// sweep prepares (or borrows) its own.
type Prepared struct {
	m    *Model
	p    *isa.Program
	skel *uhb.Skeleton
	ov   *uhb.Overlay
	incr *uhb.Incr // incremental acyclicity tier, shared across candidates
	dyn  builder   // dynamic run template; x/ov bound per execution

	cov    Coverage // axiom attribution, accumulated across the evaluation
	cycBuf []uint32 // reused cycle-provenance buffer

	// Local reuse/rebuild tallies, flushed to the obs counters on Close.
	reuse, rebuild uint64
}

// Prepare builds the static skeleton of p under the model's axioms and
// returns an evaluator that streams executions through it. Release the
// result with Close when the sweep is done so its overlay returns to the
// shared pool.
func (m *Model) Prepare(p *isa.Program) *Prepared {
	start := time.Now()
	C, K := m.layout(p)
	ev := p.Mem().Events()
	pr := &Prepared{m: m, p: p}
	sb := builder{m: m, p: p, ev: ev, C: C, K: K, cov: &pr.cov}
	sb.skel = uhb.AcquireSkeleton(len(ev) * K)
	sb.run()
	sb.skel.Freeze()
	// Post-dedup static attribution: the reasons that survived Freeze own
	// the skeleton's edges (emission already set the Fired bits above).
	sb.skel.ForEachEdge(func(_, _ int, reason uint32) {
		pr.cov.Edges |= axiomBit(Reason(reason))
	})
	phaseSkeleton.Observe(time.Since(start))
	pr.skel = sb.skel
	pr.ov = uhb.AcquireOverlay(sb.skel)
	pr.incr = uhb.AcquireIncr(sb.skel)
	pr.dyn = builder{m: m, p: p, ev: ev, C: C, K: K, cov: &pr.cov}
	return pr
}

// Coverage returns the axiom-attribution bitsets accumulated so far:
// static edges since Prepare, dynamic edges and witnessing cycles across
// every execution checked through this Prepared.
func (pr *Prepared) Coverage() Coverage { return pr.cov }

// Skeleton exposes the static tier (frozen; safe to share read-only).
func (pr *Prepared) Skeleton() *uhb.Skeleton { return pr.skel }

// ExecutionObservable reports whether execution x is observable on the
// model: whether skeleton + x's overlay is acyclic. The verdict comes
// from the incremental tier: the overlay is rebuilt per candidate as
// before (coverage attribution happens at emission), but instead of a
// full DFS the engine diffs the overlay's bitset rows against the edge
// set it already holds and repairs its maintained topological order
// edge by edge. A forbidding cycle still records provenance through the
// retained full DFS — the witnessing cycle, and therefore the axiom
// multiset OR-ed into the coverage Cycle bitset, is bit-identical to
// the pre-incremental path.
func (pr *Prepared) ExecutionObservable(x *mem.Execution) bool {
	pr.ov.Reset(pr.skel)
	b := &pr.dyn
	b.x = x
	b.ov = pr.ov
	b.run()
	b.x, b.ov = nil, nil
	cyclic, fresh := pr.incr.Sync(pr.ov)
	if fresh {
		pr.rebuild++
	} else {
		pr.reuse++
	}
	if cyclic {
		reasons, _ := pr.ov.HasCycleReasons(pr.cycBuf[:0])
		for _, r := range reasons {
			pr.cov.Cycle |= axiomBit(Reason(r))
		}
		pr.cycBuf = reasons
		return false
	}
	return true
}

// Close returns the pooled overlay and incremental engine, and flushes
// the reuse tallies. The Prepared must not be used after.
func (pr *Prepared) Close() {
	if pr.ov != nil {
		uhb.ReleaseOverlay(pr.ov)
		pr.ov = nil
	}
	if pr.incr != nil {
		uhb.ReleaseIncr(pr.incr)
		pr.incr = nil
	}
	if pr.skel != nil {
		uhb.ReleaseSkeleton(pr.skel)
		pr.skel = nil
	}
	if pr.reuse > 0 {
		incrReuse.Add(pr.reuse)
		pr.reuse = 0
	}
	if pr.rebuild > 0 {
		incrRebuild.Add(pr.rebuild)
		pr.rebuild = 0
	}
}

// Evaluate computes the observable outcome set of the prepared program —
// the Figure 6 step 3 body, sharing one skeleton and one overlay across
// the whole candidate enumeration. It is EvaluateAll's one-model case.
func (pr *Prepared) Evaluate() (*Result, error) {
	rs, err := EvaluateAll([]*Prepared{pr})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateAll evaluates several models over one compiled program in a
// single candidate enumeration: every Prepared must have been prepared
// on the same program. Each candidate execution is enumerated and its
// outcome interned once, then offered to every model under that model's
// own skip-if-known-observable rule, so each model sees exactly the
// candidate sequence — and keeps exactly the skeleton, overlay,
// incremental order, coverage and Graphs count — it would alone. The
// scratch execution and the outcome ids are shared, which is why
// ExecutionObservable must never mutate its argument.
//
// Results are returned in prs order. Their All maps are one shared,
// read-only set: the candidate universe does not depend on the model.
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
	// ids against a flat known-observable table (row id, column model),
	// and the outcome maps are built once at the end. Ids are assigned in
	// first-seen order, so the skip logic — and therefore every Graphs
	// counter — is bit-identical to a map-based loop.
	cache := mem.AcquireOutcomeCache(p.Mem())
	defer mem.ReleaseOutcomeCache(cache)
	var known []bool
	candidates := 0
	// The innermost loop stays untimed unless cycle sampling is on: a
	// single atomic load per checked graph decides, and only every Nth
	// check pays for two monotonic clock reads.
	sampleN := uint64(obs.CycleSampling())
	err := mem.Enumerate(p.Mem(), func(x *mem.Execution) bool {
		candidates++
		_, id := cache.Lookup(x)
		if id*k == len(known) {
			for range prs {
				known = append(known, false)
			}
		}
		row := known[id*k : id*k+k]
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
	outs := cache.Outcomes()
	all := make(map[mem.Outcome]bool, len(outs))
	for _, o := range outs {
		all[o] = true
	}
	out := make([]*Result, k)
	for i := range res {
		r := &res[i]
		r.Candidates, r.All = candidates, all
		r.Observable = make(map[mem.Outcome]bool, len(outs))
		for id, o := range outs {
			if known[id*k+i] {
				r.Observable[o] = true
			}
		}
		out[i] = r
	}
	phaseEnumerate.Observe(time.Since(start))
	return out, nil
}
