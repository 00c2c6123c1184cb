package farm

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

func squareJobs(n int, execs *atomic.Int64) []Job[string, int] {
	jobs := make([]Job[string, int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[string, int]{
			Key: fmt.Sprintf("sq:%d", i),
			Run: func() (int, error) {
				execs.Add(1)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunOrderAndDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var execs atomic.Int64
		got, stats, err := Run(squareJobs(100, &execs), Options[string, int]{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if execs.Load() != 100 || stats.Executed != 100 {
			t.Fatalf("workers=%d: executed %d/%d, want 100", workers, execs.Load(), stats.Executed)
		}
		if stats.Unique != 100 || stats.Jobs != 100 {
			t.Fatalf("workers=%d: stats %+v", workers, stats)
		}
	}
}

func TestDeduplication(t *testing.T) {
	var execs atomic.Int64
	jobs := make([]Job[string, int], 30)
	for i := range jobs {
		key := fmt.Sprintf("k%d", i%10) // each key submitted 3 times
		jobs[i] = Job[string, int]{Key: key, Run: func() (int, error) {
			execs.Add(1)
			return len(key), nil
		}}
	}
	got, stats, err := Run(jobs, Options[string, int]{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 10 {
		t.Fatalf("executed %d thunks, want 10 (deduplicated)", execs.Load())
	}
	if stats.Unique != 10 || stats.Jobs != 30 {
		t.Fatalf("stats %+v", stats)
	}
	for i, v := range got {
		if v != len(fmt.Sprintf("k%d", i%10)) {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestOnResultStreamsEverything(t *testing.T) {
	var execs atomic.Int64
	jobs := squareJobs(20, &execs)
	jobs = append(jobs, jobs...) // 20 duplicates
	seen := make([]bool, len(jobs))
	var cachedCount int
	_, _, err := Run(jobs, Options[string, int]{
		Workers: 4,
		OnResult: func(i int, v int, cached bool) {
			if seen[i] {
				t.Errorf("result %d delivered twice", i)
			}
			seen[i] = true
			if cached {
				cachedCount++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("result %d never delivered", i)
		}
	}
	if cachedCount != 20 {
		t.Fatalf("%d results marked cached, want the 20 duplicates", cachedCount)
	}
}

func TestFirstErrorWins(t *testing.T) {
	boom7 := errors.New("boom 7")
	boom3 := errors.New("boom 3")
	jobs := make([]Job[string, int], 10)
	for i := range jobs {
		i := i
		jobs[i] = Job[string, int]{Key: fmt.Sprintf("e%d", i), Run: func() (int, error) {
			switch i {
			case 3:
				return 0, boom3
			case 7:
				return 0, boom7
			}
			return i, nil
		}}
	}
	// Deterministic regardless of scheduling: the error of the lowest
	// submission index is reported.
	for _, workers := range []int{1, 4} {
		_, _, err := Run(jobs, Options[string, int]{Workers: workers})
		if !errors.Is(err, boom3) {
			t.Fatalf("workers=%d: err = %v, want boom 3", workers, err)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	c := NewCache[string, []string](0)
	c.Put("x", []string{"1", "2"})
	c.Put("y", nil)
	if err := SaveSnapshot(path, c); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache[string, []string](0)
	if err := LoadSnapshot(path, c2); err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.Get("x"); !ok || !reflect.DeepEqual(v, []string{"1", "2"}) {
		t.Fatalf("x = %v, %v", v, ok)
	}
	if c2.Len() != 2 {
		t.Fatalf("len = %d", c2.Len())
	}
}

func TestEmptyRun(t *testing.T) {
	got, stats, err := Run(nil, Options[string, int]{})
	if err != nil || len(got) != 0 || stats.Jobs != 0 {
		t.Fatalf("got %v, %+v, %v", got, stats, err)
	}
}

func TestPreCancelledContextSchedulesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var execs atomic.Int64
	_, stats, err := Run(squareJobs(50, &execs), Options[string, int]{Workers: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if execs.Load() != 0 {
		t.Fatalf("executed %d jobs under a pre-cancelled context, want 0", execs.Load())
	}
	if stats.Skipped != 50 {
		t.Fatalf("stats.Skipped = %d, want 50 (stats %+v)", stats.Skipped, stats)
	}
}

// TestCancellationStopsSchedulingButKeepsFinishedResults: cancelling
// mid-run schedules nothing new, while every job that finished is still
// delivered, correct, and counted; the rest are reported as skipped.
// (That finished work also lands in the memo cache is the engine's
// concern: core's TestSweepStreamContextCancellationStopsScheduling.)
func TestCancellationStopsSchedulingButKeepsFinishedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var execs atomic.Int64
	const n = 200
	jobs := make([]Job[string, int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[string, int]{Key: fmt.Sprintf("c:%d", i), Run: func() (int, error) {
			execs.Add(1)
			return i * i, nil
		}}
	}
	delivered := 0
	_, stats, err := Run(jobs, Options[string, int]{
		Workers: 1,
		Context: ctx,
		OnResult: func(i, v int, cached bool) {
			delivered++
			if delivered == 5 {
				cancel() // abort mid-run, single worker ⇒ plenty pending
			}
			if v != i*i {
				t.Errorf("result[%d] = %d, want %d", i, v, i*i)
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := int(execs.Load()); got >= n || got < 5 {
		t.Fatalf("executed %d of %d jobs, want a strict partial run ≥ 5", got, n)
	}
	if stats.Skipped == 0 || stats.Skipped != stats.Unique-stats.Executed {
		t.Fatalf("stats.Skipped = %d, want %d (stats %+v)", stats.Skipped, stats.Unique-stats.Executed, stats)
	}
	if delivered != stats.Executed {
		t.Fatalf("delivered %d results, want the %d executed", delivered, stats.Executed)
	}
}
