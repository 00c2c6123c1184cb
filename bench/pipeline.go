package main

import (
	"errors"
	"fmt"
	"sync"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/core"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/opsim"
)

// verdict is what the benchmark checks of one (test, stack) job: the
// step-4 verdict and whether the test's specified outcome is a bug.
type verdict struct {
	v            core.Verdict
	specifiedBug bool
}

// counts are a traced job's work counters.
type counts struct {
	edges, candidates, graphs, cyclic, states int
}

func (c *counts) add(o counts) {
	c.edges += o.edges
	c.candidates += o.candidates
	c.graphs += o.graphs
	c.cyclic += o.cyclic
	c.states += o.states
}

// hllSlot evaluates one test's C11 program once per traced run, shared
// by every stack's job, as core.Engine.HLL does.
type hllSlot struct {
	once sync.Once
	r    *c11.Result
	err  error
}

// tracedJob runs toolflow steps 1–4 for one job through the layers'
// public functions, in the order core.Engine runs them, recording one
// span per call: C11 evaluation (once per test), compilation, skeleton
// preparation, then Prepared.Evaluate's candidate loop driven from
// here — mem.Enumerate with outcome interning and one
// ExecutionObservable call per candidate whose outcome is not yet known
// observable — and, under BackendBoth, the operational second opinion.
func tracedJob(rec *recorder, t *litmus.Test, hll *hllSlot, s core.Stack, backend core.Backend) (verdict, counts, error) {
	var n counts
	root := rec.begin(layerJob, -1)
	defer rec.end(root)

	hll.once.Do(func() {
		i := rec.begin(layerC11, root)
		hll.r, hll.err = c11.Evaluate(t.Prog)
		rec.end(i)
	})
	if hll.err != nil {
		return verdict{}, n, hll.err
	}

	i := rec.begin(layerCompile, root)
	prog, err := compile.Compile(s.Mapping, t.Prog)
	rec.end(i)
	if err != nil {
		return verdict{}, n, err
	}
	i = rec.begin(layerSkeleton, root)
	pr := s.Model.Prepare(prog)
	rec.end(i)
	n.edges = pr.Skeleton().NumEdges()

	enum := rec.begin(layerEnumerate, root)
	cache := mem.AcquireOutcomeCache(prog.Mem())
	var observed []bool // by interned outcome id
	err = mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
		n.candidates++
		_, id := cache.Lookup(x)
		if id == len(observed) {
			observed = append(observed, false)
		}
		if observed[id] {
			return true
		}
		n.graphs++
		c := rec.begin(layerCycle, enum)
		ok := pr.ExecutionObservable(x)
		rec.end(c)
		if ok {
			observed[id] = true
		} else {
			n.cyclic++
		}
		return true
	})
	observable := map[mem.Outcome]bool{}
	for id, o := range cache.Outcomes() {
		if observed[id] {
			observable[o] = true
		}
	}
	mem.ReleaseOutcomeCache(cache)
	rec.end(enum)
	pr.Close()
	compile.ReleaseProgram(prog)
	if err != nil {
		return verdict{}, n, err
	}

	v := compareOutcomes(hll.r.Allowed, observable, t.Specified)
	if backend != core.BackendBoth {
		return v, n, nil
	}
	if opsim.Supports(s.Model.Config) != nil {
		return v, n, nil // no machine for this config: the engine records a skip
	}
	i = rec.begin(layerCompile, root)
	prog, err = compile.Compile(s.Mapping, t.Prog)
	rec.end(i)
	if err != nil {
		return verdict{}, n, err
	}
	i = rec.begin(layerOpsim, root)
	sim, err := opsim.ForConfig(s.Model.Config, prog)
	var reached map[mem.Outcome]bool
	if err == nil {
		reached = sim.Outcomes()
		n.states = sim.StateCount()
	}
	rec.end(i)
	compile.ReleaseProgram(prog)
	if err != nil {
		return verdict{}, n, err
	}
	if !sameOutcomes(observable, reached) {
		v.v = core.Divergence
	}
	return v, n, nil
}

// compareOutcomes is step 4: a C11-forbidden outcome the model observes
// is a bug; a permitted one it never observes is overly strict.
func compareOutcomes(allowed, observable map[mem.Outcome]bool, specified mem.Outcome) verdict {
	v := verdict{v: core.Equivalent, specifiedBug: observable[specified] && !allowed[specified]}
	for o := range allowed {
		if !observable[o] {
			v.v = core.OverlyStrict
			break
		}
	}
	for o := range observable {
		if !allowed[o] {
			v.v = core.Bug
			break
		}
	}
	return v
}

func sameOutcomes(a, b map[mem.Outcome]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

// verdictOf is the checked part of an engine result.
func verdictOf(r *core.TestResult) verdict {
	return verdict{v: r.Verdict, specifiedBug: r.SpecifiedBug}
}

// specifiedSuffix marks a verdict whose specified outcome is a bug.
const specifiedSuffix = "+specified"

// String spells the verdict as the wire does, plus specifiedSuffix.
func (v verdict) String() string {
	if v.specifiedBug {
		return v.v.String() + specifiedSuffix
	}
	return v.v.String()
}

// errMismatch marks a verdict or tally that differs from its reference.
var errMismatch = errors.New("verdict mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}
