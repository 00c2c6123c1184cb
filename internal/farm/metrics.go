package farm

import (
	"time"

	"tricheck/internal/obs"
)

// Metrics is the farm's scheduler telemetry: per-job queue-wait and
// run-time distributions, steal/dedup/skip counters and memo-cache
// hit/miss counters with lookup latencies (the last three recorded by
// the caller's warm pass through ObserveLookup). All fields are
// pre-registered obs handles; recording is atomic adds only, so
// instrumented runs keep the farm's hot loop allocation-free.
type Metrics struct {
	// QueueWait is the time a job spent enqueued before a worker took it.
	QueueWait *obs.Histogram
	// RunTime is the job thunk's execution time.
	RunTime *obs.Histogram
	// MemoLookup is the memo-cache Get latency (hits and misses).
	MemoLookup *obs.Histogram
	// MemoHits / MemoMisses count warm-pass cache outcomes.
	MemoHits, MemoMisses *obs.Counter
	// Executed / Stolen / Deduped / Skipped count job dispositions.
	Executed, Stolen, Deduped, Skipped *obs.Counter
	// Runs counts farm runs.
	Runs *obs.Counter
}

// NewMetrics registers (or re-resolves — registration is idempotent) the
// farm metric family in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		QueueWait:  r.Histogram("tricheck_farm_queue_wait_seconds", "Time a farm job waited in a shard deque before a worker took it.", nil),
		RunTime:    r.Histogram("tricheck_farm_job_run_seconds", "Execution time of a farm job thunk.", nil),
		MemoLookup: r.Histogram("tricheck_farm_memo_lookup_seconds", "Memo-cache Get latency during the warm pass.", nil),
		MemoHits:   r.Counter("tricheck_farm_memo_total", "Warm-pass memo-cache lookups by outcome.", obs.L("outcome", "hit")),
		MemoMisses: r.Counter("tricheck_farm_memo_total", "Warm-pass memo-cache lookups by outcome.", obs.L("outcome", "miss")),
		Executed:   r.Counter("tricheck_farm_jobs_total", "Farm jobs by disposition.", obs.L("disposition", "executed")),
		Stolen:     r.Counter("tricheck_farm_jobs_total", "Farm jobs by disposition.", obs.L("disposition", "stolen")),
		Deduped:    r.Counter("tricheck_farm_jobs_total", "Farm jobs by disposition.", obs.L("disposition", "deduped")),
		Skipped:    r.Counter("tricheck_farm_jobs_total", "Farm jobs by disposition.", obs.L("disposition", "skipped")),
		Runs:       r.Counter("tricheck_farm_runs_total", "Farm runs started."),
	}
}

// ObserveLookup records one memo-cache lookup that began at start, by
// outcome; nil-safe. The scheduler itself never consults a cache: the
// caller's warm pass (core's engine) records its lookups here.
func (m *Metrics) ObserveLookup(start time.Time, hit bool) {
	if m == nil {
		return
	}
	m.MemoLookup.Observe(time.Since(start))
	if hit {
		m.MemoHits.Inc()
	} else {
		m.MemoMisses.Inc()
	}
}
