package core

import (
	"sort"
	"time"

	"tricheck/internal/farm"
	"tricheck/internal/obs"
)

// Engine-level telemetry: the toolflow phase histograms core owns (µspec
// owns skeleton/enumerate/cycle_check), the shared farm scheduler
// metrics, and the opt-in per-(test, stack) cost matrix behind
// `tricheck top`.

var (
	// farmMetrics is the scheduler telemetry every engine's sweeps record
	// into (process-global, like the metrics themselves).
	farmMetrics = farm.NewMetrics(obs.Default)

	phaseHLL         = obs.Default.Histogram("tricheck_verdict_phase_seconds", "Per-verdict toolflow phase durations.", nil, obs.L("phase", "hll"))
	phaseCompile     = obs.Default.Histogram("tricheck_verdict_phase_seconds", "Per-verdict toolflow phase durations.", nil, obs.L("phase", "compile"))
	phaseOpsim       = obs.Default.Histogram("tricheck_verdict_phase_seconds", "Per-verdict toolflow phase durations.", nil, obs.L("phase", "opsim"))
	phaseDiagnostics = obs.Default.Histogram("tricheck_verdict_phase_seconds", "Per-verdict toolflow phase durations.", nil, obs.L("phase", "diagnostics"))

	verdictCounters = [...]*obs.Counter{
		Equivalent:   obs.Default.Counter("tricheck_verdicts_total", "Executed verdicts by outcome.", obs.L("verdict", "Equivalent")),
		OverlyStrict: obs.Default.Counter("tricheck_verdicts_total", "Executed verdicts by outcome.", obs.L("verdict", "OverlyStrict")),
		Bug:          obs.Default.Counter("tricheck_verdicts_total", "Executed verdicts by outcome.", obs.L("verdict", "Bug")),
		Divergence:   obs.Default.Counter("tricheck_verdicts_total", "Executed verdicts by outcome.", obs.L("verdict", "Divergence")),
	}
)

// verdictNames is the ledger's verdict catalogue, in ordinal order.
func verdictNames() []string {
	return []string{Equivalent.String(), OverlyStrict.String(), Bug.String(), Divergence.String()}
}

// costKey identifies one cost-matrix cell.
type costKey struct {
	test, stack string
}

// JobCost is one cell of the engine's per-(test, stack) cost matrix:
// cumulative wall time of every executed verification of that pair,
// split by toolflow phase. Only an engine asked to (EnableCostMatrix)
// records cells. Memo hits and deduplicated pairs cost nothing and are
// not recorded. A pair executes inside a (test, mapping) group
// job: the group's shared time — HLL, Compile, the Enumerate pass with
// its interleaved cycle checks, and the rest of Total — is split evenly
// over the group's executed stacks, while Skeleton, Opsim, Candidates
// and Graphs are the pair's own, so the cells of a group add up to its
// wall time. A test's C11 evaluation runs once per engine, so only the
// group that ran it charges HLL; the other groups' wait for it stays in
// Total, outside every phase.
type JobCost struct {
	Test   string
	Family string
	Stack  string
	// Count is the number of executed evaluations accumulated here
	// (usually 1 per engine unless the memo cache is disabled).
	Count int
	// Total is the pair's share of its group's wall time; the phase
	// fields split it. Skeleton and Enumerate are the µhb side of step 3,
	// Opsim the operational side (so under BackendBoth both are filled).
	Total     time.Duration
	HLL       time.Duration
	Compile   time.Duration
	Skeleton  time.Duration
	Enumerate time.Duration
	Opsim     time.Duration
	// Candidates / Graphs are the µhb evaluation's enumeration counters
	// (executions visited, overlay cycle checks run).
	Candidates int
	Graphs     int
}

// Work is the cell's attributed phase time: HLL, Compile, Skeleton,
// Enumerate and Opsim. The rest of Total is waiting and bookkeeping.
func (c JobCost) Work() time.Duration {
	return c.HLL + c.Compile + c.Skeleton + c.Enumerate + c.Opsim
}

// EnableCostMatrix makes the engine keep a cost-matrix cell for every
// pair it executes from now on. It is off by default: only a hot-spot
// report reads the matrix, and it grows by one cell per executed pair
// for the engine's lifetime.
func (e *Engine) EnableCostMatrix() { e.costsOn.Store(true) }

// recordCost folds one executed job into the cost matrix.
func (e *Engine) recordCost(c JobCost) {
	k := costKey{c.Test, c.Stack}
	e.costMu.Lock()
	if e.costs == nil {
		e.costs = map[costKey]*JobCost{}
	}
	cell := e.costs[k]
	if cell == nil {
		cell = &JobCost{Test: c.Test, Family: c.Family, Stack: c.Stack}
		e.costs[k] = cell
	}
	cell.Count += c.Count
	cell.Total += c.Total
	cell.HLL += c.HLL
	cell.Compile += c.Compile
	cell.Skeleton += c.Skeleton
	cell.Enumerate += c.Enumerate
	cell.Opsim += c.Opsim
	cell.Candidates += c.Candidates
	cell.Graphs += c.Graphs
	e.costMu.Unlock()
}

// CostMatrix returns a copy of the per-(test, stack) cost matrix,
// sorted by Work, most first (ties broken by stack then test for
// deterministic reports), so waits do not rank as work. It is empty
// unless EnableCostMatrix was called before the sweeps it should cost.
func (e *Engine) CostMatrix() []JobCost {
	e.costMu.Lock()
	out := make([]JobCost, 0, len(e.costs))
	for _, c := range e.costs {
		out = append(out, *c)
	}
	e.costMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if wi, wj := out[i].Work(), out[j].Work(); wi != wj {
			return wi > wj
		}
		if out[i].Stack != out[j].Stack {
			return out[i].Stack < out[j].Stack
		}
		return out[i].Test < out[j].Test
	})
	return out
}
