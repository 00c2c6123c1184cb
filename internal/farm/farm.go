// Package farm is the verification farm substrate: a sharded
// work-stealing scheduler with job deduplication, plus a memoized result
// cache (in-memory LRU plus an optional JSON snapshot on disk) for its
// callers' warm passes.
//
// The farm is deliberately generic. Jobs are (key, thunk) pairs: the key
// is a canonical fingerprint of the work and the thunk performs it. For
// TriCheck a job is a (test, mapping) group — one litmus test and the
// stacks of a sweep that share its compiler mapping — while memo keys,
// the cache and deduplication of identical (test, stack) pairs stay with
// the engine (internal/core), which consults the cache before it builds
// any group. The scheduler:
//
//   - deduplicates jobs by key, executing each distinct key once and
//     fanning the result out to every submitted duplicate;
//   - distributes the jobs over per-worker shard deques; each worker
//     drains its own shard LIFO and steals FIFO from the others when
//     idle, so stragglers (litmus tests with large execution-candidate
//     spaces) never serialize the sweep;
//   - streams every result to an optional observer as it lands, for
//     progressive reporting, while still returning the full result slice
//     in submission order for deterministic aggregation.
//
// Stats.Stolen and Stats.Workers therefore count jobs — groups, under
// the engine — not (test, stack) pairs.
//
// Determinism: results are assigned by submission index, the cache is
// keyed by content fingerprints, and verdict aggregation happens outside
// the farm, so the output of a run is byte-identical regardless of the
// worker count or the steal schedule.
package farm

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of farm work: a canonical key plus the thunk that
// computes the value. Jobs with equal keys MUST compute equal values;
// the farm runs only one of them.
type Job[K comparable, V any] struct {
	// Key is the canonical fingerprint of the work.
	Key K
	// Run performs the work. It is called at most once per distinct key
	// per farm run.
	Run func() (V, error)
}

// Stats reports what a farm run did.
type Stats struct {
	// Jobs is the number of submitted jobs; Unique the number of
	// distinct keys among them.
	Jobs, Unique int
	// CacheHits counts distinct keys satisfied from a memo cache without
	// execution — by the caller's warm pass, so Run leaves it zero;
	// Executed counts keys whose thunk actually ran.
	CacheHits, Executed int
	// Stolen counts executions a worker took from a foreign shard.
	Stolen int
	// Skipped counts distinct keys that were never scheduled because the
	// run's context was cancelled first.
	Skipped int
	// Workers is the resolved worker count.
	Workers int
}

// Options configures a farm run.
type Options[K comparable, V any] struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// OnResult, when non-nil, observes every job's result as it lands
	// (duplicates included, with cached=true). Calls are serialized;
	// index is the job's submission index.
	OnResult func(index int, v V, cached bool)
	// Context, when non-nil, aborts the run: once it is cancelled no new
	// job is scheduled (in-flight jobs finish and are streamed to
	// OnResult as usual) and Run returns the context's error. Nil means
	// run to completion.
	Context context.Context
	// Metrics, when non-nil, receives scheduler telemetry: queue-wait and
	// run-time distributions and disposition counters. Recording is
	// atomic adds on pre-registered handles — the instrumented path
	// performs no allocation or formatting.
	Metrics *Metrics
}

// shard is one worker's deque. The owner pops newest-first from the
// tail; thieves pop oldest-first from the head, so stolen work is the
// work least likely to be in the owner's cache-warm neighbourhood.
type shard struct {
	mu   sync.Mutex
	jobs []int // indices into the canonical job list
}

func (s *shard) popTail() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) == 0 {
		return 0, false
	}
	j := s.jobs[len(s.jobs)-1]
	s.jobs = s.jobs[:len(s.jobs)-1]
	return j, true
}

func (s *shard) popHead() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) == 0 {
		return 0, false
	}
	j := s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, true
}

// Run executes the jobs and returns their values in submission order.
// On error the partial results are returned together with the first
// error in submission order; a cancelled Options.Context wins over job
// errors.
func Run[K comparable, V any](jobs []Job[K, V], opts Options[K, V]) ([]V, Stats, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	obsm := opts.Metrics
	if obsm != nil {
		obsm.Runs.Inc()
	}
	stats := Stats{Jobs: len(jobs)}
	results := make([]V, len(jobs))
	errs := make([]error, len(jobs))

	// Deduplicate by key: the first job with a key is canonical, later
	// ones become aliases that receive a copy of its result.
	canon := make(map[K]int, len(jobs))
	aliases := make(map[int][]int)
	var pending []int
	var emitMu sync.Mutex
	emit := func(i int, v V, cached bool) {
		emitMu.Lock()
		defer emitMu.Unlock()
		results[i] = v
		if opts.OnResult != nil {
			opts.OnResult(i, v, cached)
		}
		for _, a := range aliases[i] {
			results[a] = v
			if opts.OnResult != nil {
				opts.OnResult(a, v, true)
			}
		}
	}
	for i, j := range jobs {
		if ci, ok := canon[j.Key]; ok {
			aliases[ci] = append(aliases[ci], i)
			continue
		}
		canon[j.Key] = i
		pending = append(pending, i)
	}
	stats.Unique = len(pending)
	if obsm != nil && stats.Jobs > stats.Unique {
		obsm.Deduped.Add(uint64(stats.Jobs - stats.Unique))
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers == 0 {
		return results, stats, runError(ctx, errs)
	}
	stats.Workers = workers

	// Stripe the pending jobs across the shards so that expensive
	// neighbourhoods (litmus families are generated contiguously)
	// spread evenly, then let stealing fix any residual imbalance.
	shards := make([]*shard, workers)
	for w := range shards {
		shards[w] = &shard{}
	}
	for n, i := range pending {
		s := shards[n%workers]
		s.jobs = append(s.jobs, i)
	}

	var mu sync.Mutex // guards stats.Executed / stats.Stolen and errs
	var wg sync.WaitGroup
	// All pending jobs are enqueued before the workers start, so a job's
	// queue wait is simply take-time minus the run's start.
	enqueued := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i, stolen, ok := take(shards, w)
				if !ok {
					return
				}
				var runStart time.Time
				if obsm != nil {
					runStart = time.Now()
					obsm.QueueWait.Observe(runStart.Sub(enqueued))
				}
				v, err := jobs[i].Run()
				if obsm != nil {
					obsm.RunTime.Observe(time.Since(runStart))
					obsm.Executed.Inc()
					if stolen {
						obsm.Stolen.Inc()
					}
				}
				mu.Lock()
				stats.Executed++
				if stolen {
					stats.Stolen++
				}
				if err != nil {
					errs[i] = err
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				emit(i, v, false)
			}
		}(w)
	}
	wg.Wait()
	// Whatever is still sitting in the shards was abandoned by the
	// cancellation above; count it so callers can see how much of the
	// run never happened.
	for _, s := range shards {
		stats.Skipped += len(s.jobs)
	}
	if obsm != nil && stats.Skipped > 0 {
		obsm.Skipped.Add(uint64(stats.Skipped))
	}
	return results, stats, runError(ctx, errs)
}

// take pops work for worker w: its own shard first (tail, LIFO), then a
// steal sweep over the other shards (head, FIFO). All work is enqueued
// before the workers start, so one empty sweep means the farm is done.
func take(shards []*shard, w int) (idx int, stolen, ok bool) {
	if i, ok := shards[w].popTail(); ok {
		return i, false, true
	}
	for d := 1; d < len(shards); d++ {
		if i, ok := shards[(w+d)%len(shards)].popHead(); ok {
			return i, true, true
		}
	}
	return 0, false, false
}

// runError resolves a run's error: cancellation wins (the job errors of
// an aborted run are incidental), then the first job error in
// submission order.
func runError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
