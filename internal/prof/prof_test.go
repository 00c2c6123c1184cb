package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartEmptyPrefixIsNoop: Begin with no prefix starts no profiling
// session, so neither it nor its Stop moves the session counters.
func TestStartEmptyPrefixIsNoop(t *testing.T) {
	started, stopped := sessionsStarted.Value(), sessionsStopped.Value()
	s, err := Begin("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if sessionsStarted.Value() != started || sessionsStopped.Value() != stopped {
		t.Error("an empty prefix started or stopped a profiling session")
	}
}

// TestStartWritesBothProfiles: a session started by Begin writes a CPU
// and a heap profile when Stop ends it.
func TestStartWritesBothProfiles(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	s, err := Begin(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".mem.pprof"} {
		fi, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("missing %s: %v", suffix, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", suffix)
		}
	}
}

// TestSessionStopIdempotent pins the property the CLIs rely on around
// os.Exit paths: Stop can be called from the normal path, the fatal
// hook and a defer, in any combination, and only the first does work.
func TestSessionStopIdempotent(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	s, err := Begin(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	heap := prefix + ".mem.pprof"
	st1, err := os.Stat(heap)
	if err != nil {
		t.Fatal(err)
	}
	// Second and third stops: no error, no rewrite.
	if err := s.Stop(); err != nil {
		t.Errorf("second Stop: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Errorf("third Stop: %v", err)
	}
	st2, err := os.Stat(heap)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ModTime().Equal(st1.ModTime()) || st2.Size() != st1.Size() {
		t.Error("repeated Stop rewrote the heap profile")
	}
	if sessionsActive.Value() != 0 {
		t.Errorf("active-sessions gauge = %d after stop, want 0", sessionsActive.Value())
	}
}

// TestInertSession pins the empty-prefix and nil cases: all no-ops.
func TestInertSession(t *testing.T) {
	s, err := Begin("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Errorf("inert Stop: %v", err)
	}
	var nilSession *Session
	if err := nilSession.Stop(); err != nil {
		t.Errorf("nil Stop: %v", err)
	}
}
