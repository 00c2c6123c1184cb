package corpus

import (
	"strings"
	"testing"

	"tricheck/internal/litmus"
)

// FuzzParseLitmus fuzzes the herd .litmus parser with the invariant the
// verification farm's memo cache relies on: for ANY input the parser
// accepts, emit→parse→emit must be a byte fixed point with a stable
// canonical fingerprint — and nothing may panic. Seeds cover every
// paper-suite shape (first, middle and last memory-order variant, so
// relaxed, mixed and seq_cst spellings all appear), the extended shapes
// with fences, dependencies and memory observers, plus hand-written
// format corner cases.
func FuzzParseLitmus(f *testing.F) {
	for _, shape := range litmus.AllShapes() {
		tests := shape.Generate()
		for _, i := range []int{0, len(tests) / 2, len(tests) - 1} {
			src, err := EmitString(tests[i])
			if err != nil {
				f.Fatalf("seed %s: %v", tests[i].Name, err)
			}
			f.Add(src)
		}
	}
	f.Add("C t\n{}\nP0 (atomic_int* x) {\n  atomic_store_explicit(x, 1, memory_order_seq_cst);\n}\n\nexists (x=1)\n")
	f.Add("C t\n{ x=0; y=0 }\nP0 (atomic_int* x) {\n  *x = 1;\n}\nP1 (atomic_int* x, atomic_int* y) {\n  int r0 = *x;\n  if (r0) atomic_store_explicit(y, 1, memory_order_relaxed);\n}\n\nexists (1:r0=1)\n")
	f.Add("C t\n(* tricheck: name=t[rlx] family=t observers=0:r0 *)\n{}\nP0 (atomic_int* x) {\n  int r0 = atomic_fetch_add_explicit(x, 0, memory_order_acq_rel);\n}\n\n~exists (0:r0=0)\n")
	f.Add("C deep\n{}\nP0 (atomic_int* x, atomic_int* y) {\n  int r0 = atomic_load_explicit(y, memory_order_acquire);\n  int r1 = atomic_load_explicit((atomic_int*)r0, memory_order_relaxed);\n}\n\nexists (0:r1=0)\n")

	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := ParseString(src) // must never panic
		if err != nil {
			return // rejected input: fine
		}
		first, err := EmitString(parsed)
		if err != nil {
			t.Fatalf("accepted input failed to emit: %v\ninput:\n%s", err, src)
		}
		reparsed, err := ParseString(first)
		if err != nil {
			t.Fatalf("emitted output failed to re-parse: %v\nemitted:\n%s", err, first)
		}
		second, err := EmitString(reparsed)
		if err != nil {
			t.Fatalf("re-emit failed: %v", err)
		}
		if first != second {
			t.Fatalf("emit→parse→emit is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
		if parsed.Fingerprint() != reparsed.Fingerprint() {
			t.Fatalf("canonical fingerprint drifted across round trip:\n%s", first)
		}
	})
}

// TestParseRejectsDanglingLocations pins the hardening the fuzzer
// motivated: locations declared after thread bodies, non-identifier
// location names, empty test names and sparse thread numbers are
// rejected rather than producing programs that break downstream.
func TestParseRejectsDanglingLocations(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{
			"late init block",
			"C t\nP0 (atomic_int* x) {\n  *x = 1;\n}\n{ y=0 }\n",
			"after the thread bodies",
		},
		{
			"non-identifier location",
			"C t\n{ a b=0 }\nP0 (atomic_int* x) {\n  *x = 1;\n}\n",
			"not an identifier",
		},
		{
			"empty name",
			"C  \n{}\nP0 (atomic_int* x) {\n  *x = 1;\n}\n",
			"want header",
		},
		{
			// Threads number densely from 0, so a huge first thread
			// number is refused before anything is sized by it.
			"sparse thread number",
			"C t\n{}\nP20000000 (atomic_int* x) {\n  *x = 1;\n}\n",
			"out of order",
		},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

// TestParseAsymmetricParams: herd permits thread headers with differing
// parameter lists; the pre-scan makes every location visible to every
// thread.
func TestParseAsymmetricParams(t *testing.T) {
	src := "C t\n{}\nP0 (atomic_int* x) {\n  atomic_store_explicit(y, 1, memory_order_relaxed);\n}\nP1 (atomic_int* y) {\n  int r0 = atomic_load_explicit(y, memory_order_relaxed);\n}\n\nexists (1:r0=1)\n"
	parsed, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.Prog.Mem().NumLocs; got != 2 {
		t.Errorf("NumLocs = %d, want 2", got)
	}
}

// TestEmitHostileNames: emitting a test whose name could corrupt the
// file format degrades to a sanitized name and still round-trips to a
// byte fixed point.
func TestEmitHostileNames(t *testing.T) {
	base := litmus.MP.Generate()[0]
	hostile := &litmus.Test{
		Name:      "evil *) (* name",
		Shape:     &litmus.Shape{Name: "fam *)"},
		Prog:      base.Prog,
		Specified: base.Specified,
	}
	first, err := EmitString(hostile)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := ParseString(first)
	if err != nil {
		t.Fatalf("hostile-name emission is unparseable: %v\n%s", err, first)
	}
	second, err := EmitString(reparsed)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("hostile name broke the emit fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if reparsed.Fingerprint() != litmus.FingerprintProgram(base.Prog) {
		t.Error("fingerprint drifted under name sanitization")
	}
}

// TestParseRejectsAmbiguousLabels: outcome labels are program-wide
// keys, so the same register name observed on two threads (herd allows
// per-thread register namespaces; TriCheck outcomes do not) and
// register/location label collisions are rejected instead of silently
// binding every clause to one thread.
func TestParseRejectsAmbiguousLabels(t *testing.T) {
	twoThreads := "C t\n{}\nP0 (atomic_int* x) {\n  int r0 = atomic_load_explicit(x, memory_order_relaxed);\n}\nP1 (atomic_int* x) {\n  int r0 = atomic_load_explicit(x, memory_order_relaxed);\n}\n\nexists (0:r0=1 /\\ 1:r0=1)\n"
	if _, err := ParseString(twoThreads); err == nil || !strings.Contains(err.Error(), "observed on both") {
		t.Errorf("cross-thread duplicate label: error %v, want 'observed on both'", err)
	}
	metaDup := "C t\n(* tricheck: observers=0:r0,1:r0 *)\n{}\nP0 (atomic_int* x) {\n  int r0 = atomic_load_explicit(x, memory_order_relaxed);\n}\nP1 (atomic_int* x) {\n  int r0 = atomic_load_explicit(x, memory_order_relaxed);\n}\n\nexists (0:r0=1)\n"
	if _, err := ParseString(metaDup); err == nil || !strings.Contains(err.Error(), "duplicate observer label") {
		t.Errorf("metadata duplicate label: error %v, want 'duplicate observer label'", err)
	}
}
