package farm

import (
	"sync/atomic"
	"testing"

	"tricheck/internal/obs"
)

// TestRunRecordsMetrics pins the scheduler telemetry contract: a run
// records executed jobs, queue-wait and run-time observations. (Memo
// hit/miss counts and lookup latencies come from the engine's warm pass:
// core's TestSweepGroupsKeepPerPairAccounting.)
func TestRunRecordsMetrics(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	var execs atomic.Int64

	_, stats, err := Run(squareJobs(40, &execs), Options[string, int]{
		Workers: 4, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs.Value() != 1 {
		t.Errorf("runs = %d, want 1", m.Runs.Value())
	}
	if got := m.Executed.Value(); got != uint64(stats.Executed) || got != 40 {
		t.Errorf("executed counter = %d, farm stats %d, want 40", got, stats.Executed)
	}
	if m.QueueWait.Count() != 40 || m.RunTime.Count() != 40 {
		t.Errorf("queue-wait %d / run-time %d observations, want 40 each",
			m.QueueWait.Count(), m.RunTime.Count())
	}
	if m.MemoHits.Value() != 0 || m.MemoMisses.Value() != 0 || m.MemoLookup.Count() != 0 {
		t.Errorf("a run without a warm pass recorded memo lookups: hits=%d misses=%d lookups=%d",
			m.MemoHits.Value(), m.MemoMisses.Value(), m.MemoLookup.Count())
	}
}

// TestRunMetricsDedup pins the deduped-disposition counter.
func TestRunMetricsDedup(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	var execs atomic.Int64
	jobs := squareJobs(10, &execs)
	jobs = append(jobs, squareJobs(10, &execs)...) // every key twice
	if _, _, err := Run(jobs, Options[string, int]{Workers: 2, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if m.Deduped.Value() != 10 {
		t.Errorf("deduped = %d, want 10", m.Deduped.Value())
	}
	if m.Executed.Value() != 10 {
		t.Errorf("executed = %d, want 10", m.Executed.Value())
	}
}

// TestRunNilMetrics pins that a run without metrics records nothing and
// does not crash — the zero-cost default for library users.
func TestRunNilMetrics(t *testing.T) {
	var execs atomic.Int64
	if _, _, err := Run(squareJobs(8, &execs), Options[string, int]{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
