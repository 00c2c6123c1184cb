// Package prof is the CLI profiling plumbing shared by the tricheck
// commands: a -profile flag value turns into a CPU profile captured for
// the lifetime of the run plus a heap profile snapshotted at the end, so
// performance work on the sweep paths can be grounded in real profiles
// (go tool pprof <binary> <prefix>.cpu.pprof).
//
// Stop is idempotent, which is the property the CLIs need: they stop
// the session on the normal exit path AND before every early os.Exit
// (-fail-on-bug, fatal errors) without once-guard boilerplate, and
// whichever call runs first wins. A deferred Stop alone is NOT enough —
// os.Exit skips defers, which is exactly how a -fail-on-bug exit would
// otherwise truncate the CPU profile and lose the heap profile.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"tricheck/internal/obs"
)

// Session telemetry: starts/stops land in the process obs registry so a
// scrape (or -metrics-out dump) records whether a run was profiled —
// profiling overhead shows up in every duration histogram, and these
// markers keep that explicable.
var (
	sessionsStarted = obs.Default.Counter("tricheck_prof_sessions_total", "Profiling sessions by lifecycle event.", obs.L("event", "start"))
	sessionsStopped = obs.Default.Counter("tricheck_prof_sessions_total", "Profiling sessions by lifecycle event.", obs.L("event", "stop"))
	sessionsActive  = obs.Default.Gauge("tricheck_prof_active_sessions", "Profiling sessions currently recording.")
)

// Session is one active profiling capture. The zero/nil Session is
// inert: Begin("") returns one, so callers wire the -profile flag
// unconditionally and call Stop everywhere an exit can happen.
type Session struct {
	prefix string
	cpu    *os.File
	once   sync.Once
	err    error
}

// Begin starts CPU profiling into <prefix>.cpu.pprof. An empty prefix
// returns an inert session.
func Begin(prefix string) (*Session, error) {
	if prefix == "" {
		return &Session{}, nil
	}
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("prof: %w", err)
	}
	sessionsStarted.Inc()
	sessionsActive.Add(1)
	return &Session{prefix: prefix, cpu: cpu}, nil
}

// Stop ends the CPU profile and snapshots the heap to
// <prefix>.mem.pprof. Idempotent and nil-safe: only the first call does
// the work (and its error is sticky); every later call returns that
// same error, so "defer s.Stop()" plus explicit Stops before os.Exit
// compose safely.
func (s *Session) Stop() error {
	if s == nil || s.prefix == "" {
		return nil
	}
	s.once.Do(func() {
		defer func() {
			sessionsStopped.Inc()
			sessionsActive.Add(-1)
		}()
		pprof.StopCPUProfile()
		if err := s.cpu.Close(); err != nil {
			s.err = fmt.Errorf("prof: %w", err)
			return
		}
		heap, err := os.Create(s.prefix + ".mem.pprof")
		if err != nil {
			s.err = fmt.Errorf("prof: %w", err)
			return
		}
		defer heap.Close()
		runtime.GC() // publish up-to-date allocation stats
		if err := pprof.Lookup("allocs").WriteTo(heap, 0); err != nil {
			s.err = fmt.Errorf("prof: %w", err)
		}
	})
	return s.err
}
