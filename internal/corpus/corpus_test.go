package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/litmus"
)

// TestRoundTripPaperSuite checks the satellite requirement: parse →
// emit → parse is a fixed point on the full PaperSuite(), and canonical
// fingerprints are stable across the round trip.
func TestRoundTripPaperSuite(t *testing.T) {
	suite := litmus.PaperSuite()
	if len(suite) != 1701 {
		t.Fatalf("paper suite has %d tests, want 1701", len(suite))
	}
	for _, tst := range suite {
		checkRoundTrip(t, tst)
	}
}

// TestRoundTripExtendedShapes runs the same round trip over every
// variant of the shapes outside the paper suite: address dependencies,
// fences and final-memory observers (s, r, 2+2w). RMWs and control
// dependencies round-trip as FuzzParseLitmus seeds.
func TestRoundTripExtendedShapes(t *testing.T) {
	for _, shape := range litmus.ExtendedShapes() {
		for _, tst := range shape.Generate() {
			checkRoundTrip(t, tst)
		}
	}
}

// checkRoundTrip checks that emit → parse → emit is a fixed point on tst
// and that its fingerprint, name, specified outcome and family survive.
func checkRoundTrip(t *testing.T, tst *litmus.Test) {
	t.Helper()
	first, err := EmitString(tst)
	if err != nil {
		t.Fatalf("%s: emit: %v", tst.Name, err)
	}
	parsed, err := ParseString(first)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", tst.Name, err, first)
	}
	second, err := EmitString(parsed)
	if err != nil {
		t.Fatalf("%s: re-emit: %v", tst.Name, err)
	}
	if first != second {
		t.Fatalf("%s: emit/parse/emit is not a fixed point\nfirst:\n%s\nsecond:\n%s", tst.Name, first, second)
	}
	if got, want := parsed.Fingerprint(), tst.Fingerprint(); got != want {
		t.Fatalf("%s: fingerprint changed across round trip: %s → %s", tst.Name, want, got)
	}
	if parsed.Name != tst.Name {
		t.Errorf("round trip renamed %s to %s", tst.Name, parsed.Name)
	}
	if parsed.Specified != tst.Specified {
		t.Errorf("%s: specified outcome changed: %q → %q", tst.Name, tst.Specified, parsed.Specified)
	}
	if parsed.Shape.Name != tst.Shape.Name {
		t.Errorf("%s: family changed: %q → %q", tst.Name, tst.Shape.Name, parsed.Shape.Name)
	}
}

// TestParsePlainHerd parses a metadata-free herd C file, deriving
// observers from the exists clause.
func TestParsePlainHerd(t *testing.T) {
	src := `C MP+rel+acq
{ x=0; y=0; }

P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}

P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}

exists (1:r0=1 /\ 1:r1=0)
`
	tst, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if tst.Name != "MP+rel+acq" {
		t.Errorf("name = %q", tst.Name)
	}
	if string(tst.Specified) != "r0=1; r1=0" {
		t.Errorf("specified = %q", tst.Specified)
	}
	// The parsed test must fingerprint identically to the equivalent
	// generated test (canonical fingerprints ignore naming).
	gen := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	if got, want := tst.Fingerprint(), gen.Fingerprint(); got != want {
		t.Errorf("parsed fingerprint %s != generated %s", got, want)
	}
}

// TestExportLoad exercises the directory registry: export a few
// families, load them back, and check names, families and subsets.
func TestExportLoad(t *testing.T) {
	dir := t.TempDir()
	var tests []*litmus.Test
	tests = append(tests, litmus.MP.Generate()[:5]...)
	tests = append(tests, litmus.SB.Generate()[:3]...)
	n, err := Export(dir, tests)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("exported %d files, want 8", n)
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 8 {
		t.Fatalf("loaded %d tests, want 8", c.Len())
	}
	if got := c.Families(); len(got) != 2 || got[0] != "mp" || got[1] != "sb" {
		t.Fatalf("families = %v", got)
	}
	if got := len(c.Subset("mp")); got != 5 {
		t.Fatalf("mp subset has %d tests, want 5", got)
	}
	for _, orig := range tests {
		e := c.Lookup(orig.Name)
		if e == nil {
			t.Fatalf("lookup %q failed", orig.Name)
		}
		if e.Test.Fingerprint() != orig.Fingerprint() {
			t.Errorf("%s: fingerprint changed across export/load", orig.Name)
		}
	}
	// Files land in family subdirectories.
	if _, err := os.Stat(filepath.Join(dir, "mp")); err != nil {
		t.Errorf("missing mp family dir: %v", err)
	}
}

// TestParseMultilineComment: herd corpora routinely carry block
// comments spanning lines; they must be stripped before parsing.
func TestParseMultilineComment(t *testing.T) {
	src := `C mp-commented
(* a multi-line
   header comment, as emitted by diy
 *)
{}
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (1:r0=1)
`
	tst, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(tst.Specified) != "r0=1" {
		t.Errorf("specified = %q", tst.Specified)
	}
}

// TestParseForallRejected: forall final-state conditions have inverted
// semantics and must not be silently treated as exists.
func TestParseForallRejected(t *testing.T) {
	src := `C bad
{}
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
forall (1:r0=1)
`
	if _, err := ParseString(src); err == nil || !strings.Contains(err.Error(), "forall") {
		t.Fatalf("err = %v, want forall rejection", err)
	}
}

// TestDirectoryFamilyBeatsNameGuess: without metadata, the directory
// component wins over the family guessed from a dashed test name.
func TestDirectoryFamilyBeatsNameGuess(t *testing.T) {
	dir := t.TempDir()
	src := `C mp-custom-variant
{}
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_seq_cst);
}
P1 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_seq_cst);
}
exists (1:r0=0)
`
	if err := os.MkdirAll(filepath.Join(dir, "custom"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "custom", "mp-custom-variant.litmus"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Entries[0].Family; got != "custom" {
		t.Errorf("family = %q, want custom (directory over name guess)", got)
	}
	if len(c.Subset("custom")) != 1 {
		t.Error("Subset(custom) is empty")
	}
}

// TestFamilyFromDirectory derives the family from the path when a file
// has no metadata comment and an opaque name.
func TestFamilyFromDirectory(t *testing.T) {
	dir := t.TempDir()
	src := `C weirdname
{}
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_seq_cst);
}
P1 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_seq_cst);
}
exists (1:r0=0)
`
	if err := os.MkdirAll(filepath.Join(dir, "myfam"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "myfam", "weirdname.litmus"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Entries[0].Family; got != "myfam" {
		t.Errorf("family = %q, want myfam", got)
	}
}
