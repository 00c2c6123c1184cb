package litmus

import (
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/mem"
)

// TestFingerprintIgnoresNaming: location names, register numbering and
// test names are not part of the fingerprint; structure and labels are.
func TestFingerprintIgnoresNaming(t *testing.T) {
	build := func(locA, locB string, r0, r1 int) *Test {
		p := c11.New(2, locA, locB)
		p.Store(0, c11.Rlx, mem.Const(0), mem.Const(1))
		p.Store(0, c11.Rel, mem.Const(1), mem.Const(1))
		p.Load(1, c11.Acq, mem.Const(1), r0)
		p.Load(1, c11.Rlx, mem.Const(0), r1)
		p.Observe(1, r0, "r0")
		p.Observe(1, r1, "r1")
		return &Test{Name: locA + locB, Shape: MP, Prog: p, Specified: "r0=1; r1=0"}
	}
	a := build("x", "y", 0, 1)
	b := build("u", "v", 5, 9) // renamed locations, renumbered registers
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on location names or register numbering")
	}

	// Changing a memory order must change the fingerprint.
	c := build("x", "y", 0, 1)
	c.Prog = c11.New(2, "x", "y")
	c.Prog.Store(0, c11.Rlx, mem.Const(0), mem.Const(1))
	c.Prog.Store(0, c11.SC, mem.Const(1), mem.Const(1)) // rel → sc
	c.Prog.Load(1, c11.Acq, mem.Const(1), 0)
	c.Prog.Load(1, c11.Rlx, mem.Const(0), 1)
	c.Prog.Observe(1, 0, "r0")
	c.Prog.Observe(1, 1, "r1")
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint misses a memory-order change")
	}

	// Changing an outcome label must change the fingerprint (labels
	// define the outcome namespace results are keyed by).
	d := build("x", "y", 0, 1)
	d.Prog = c11.New(2, "x", "y")
	d.Prog.Store(0, c11.Rlx, mem.Const(0), mem.Const(1))
	d.Prog.Store(0, c11.Rel, mem.Const(1), mem.Const(1))
	d.Prog.Load(1, c11.Acq, mem.Const(1), 0)
	d.Prog.Load(1, c11.Rlx, mem.Const(0), 1)
	d.Prog.Observe(1, 0, "a")
	d.Prog.Observe(1, 1, "b")
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("fingerprint misses an observer-label change")
	}
}

// TestFingerprintThreadPermutationInvariance: renumbering the threads of
// a program (keeping each outcome label attached to the same logical
// load) must not change the fingerprint — the farm may then share
// results between a generated test and a rotated synthesis of the same
// cycle. Every paper shape is checked under full thread reversal.
func TestFingerprintThreadPermutationInvariance(t *testing.T) {
	for _, shape := range PaperShapes() {
		orig := shape.Generate()[0]
		perm := permuteThreads(orig.Prog, reversePerm(orig.Prog.NumThreads()))
		if FingerprintProgram(perm) != orig.Fingerprint() {
			t.Errorf("%s: fingerprint changed under thread permutation", orig.Name)
		}
		if StructuralFingerprintProgram(perm) != orig.StructuralFingerprint() {
			t.Errorf("%s: structural fingerprint changed under thread permutation", orig.Name)
		}
	}
}

// TestFingerprintLocationRenumberingInvariance: renumbering the shared
// locations (x=1,y=0 instead of x=0,y=1) must not change the
// fingerprint.
func TestFingerprintLocationRenumberingInvariance(t *testing.T) {
	build := func(x, y int64) *c11.Program {
		p := c11.New(2, "a", "b")
		p.Store(0, c11.Rlx, mem.Const(x), mem.Const(1))
		p.Store(0, c11.Rel, mem.Const(y), mem.Const(1))
		p.Load(1, c11.Acq, mem.Const(y), 0)
		p.Load(1, c11.Rlx, mem.Const(x), 1)
		p.Observe(1, 0, "r0")
		p.Observe(1, 1, "r1")
		return p
	}
	if FingerprintProgram(build(0, 1)) != FingerprintProgram(build(1, 0)) {
		t.Error("fingerprint depends on location numbering")
	}
}

// TestFingerprintRegisterRenamingInvariance: the same program authored
// with arbitrary register numbers fingerprints identically — already
// exercised by TestFingerprintIgnoresNaming, pinned here for the
// synthesizer's global-counter numbering against per-thread numbering.
func TestFingerprintRegisterRenamingInvariance(t *testing.T) {
	build := func(r0, r1, r2 int) *c11.Program {
		p := c11.New(2, "x", "y")
		p.Store(0, c11.Rlx, mem.Const(0), mem.Const(1))
		p.Load(1, c11.Acq, mem.Const(1), r0)
		p.Load(1, c11.Rlx, mem.Const(0), r1)
		p.Load(2, c11.Rlx, mem.Const(1), r2)
		p.Observe(1, r0, "r0")
		p.Observe(1, r1, "r1")
		p.Observe(2, r2, "r2")
		return p
	}
	if FingerprintProgram(build(0, 1, 2)) != FingerprintProgram(build(7, 3, 0)) {
		t.Error("fingerprint depends on register numbering")
	}
}

// TestStructuralFingerprintAnonymizesLabels: relabeling the observers
// changes the full fingerprint (outcome namespace) but not the
// structural one (same skeleton) — synthesized duplicates that differ
// only in how the cycle rotation numbered the observers must collapse
// to one canonical shape.
func TestStructuralFingerprintAnonymizesLabels(t *testing.T) {
	build := func(l0, l1 string) *Test {
		p := c11.New(2, "x", "y")
		p.Store(0, c11.Rlx, mem.Const(0), mem.Const(1))
		p.Store(0, c11.Rel, mem.Const(1), mem.Const(1))
		p.Load(1, c11.Acq, mem.Const(1), 0)
		p.Load(1, c11.Rlx, mem.Const(0), 1)
		p.Observe(1, 0, l0)
		p.Observe(1, 1, l1)
		return &Test{Name: "t", Shape: MP, Prog: p}
	}
	a, b := build("r0", "r1"), build("obs_a", "obs_b")
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("full fingerprint must distinguish observer labels")
	}
	if a.StructuralFingerprint() != b.StructuralFingerprint() {
		t.Error("structural fingerprint must ignore observer labels")
	}
}

// TestStructuralFingerprintValueRenaming: swapping the written values
// must not change the structural fingerprint, even when the swap
// changes how the raw thread renderings would sort (the canonical form
// minimizes over block orders with value renumbering applied per
// candidate, not as a post-pass).
func TestStructuralFingerprintValueRenaming(t *testing.T) {
	build := func(v0, v1 int64) *c11.Program {
		p := c11.New(2, "x", "y")
		p.Store(0, c11.Rlx, mem.Const(0), mem.Const(v0))
		p.FenceOp(0, c11.SC)
		p.Store(1, c11.Rlx, mem.Const(0), mem.Const(v1))
		p.Load(1, c11.Rlx, mem.Const(1), 0)
		p.Observe(1, 0, "r0")
		p.ObserveMem(0, "x")
		return p
	}
	a, b := build(1, 2), build(2, 1)
	if StructuralFingerprintProgram(a) != StructuralFingerprintProgram(b) {
		t.Error("structural fingerprint depends on value numbering")
	}
	if FingerprintProgram(a) == FingerprintProgram(b) {
		t.Error("full fingerprint must distinguish written values (outcomes reference them)")
	}
}

// permuteThreads rebuilds a program with thread t moved to perm[t],
// keeping op order, registers and observer labels intact.
func permuteThreads(p *c11.Program, perm []int) *c11.Program {
	mp := p.Mem()
	q := c11.New(mp.NumLocs, mp.LocNames...)
	type slot struct {
		th  int
		ops []c11.Op
	}
	slots := make([]slot, len(p.Ops))
	for th, ops := range p.Ops {
		slots[perm[th]] = slot{th: th, ops: ops}
	}
	for _, s := range slots {
		for _, op := range s.ops {
			switch op.Kind {
			case c11.OpLoad:
				q.LoadDep(perm[s.th], op.Ord, op.Addr, op.Dst, op.CtrlDepOn)
			case c11.OpStore:
				q.StoreDep(perm[s.th], op.Ord, op.Addr, op.Data, op.CtrlDepOn)
			case c11.OpRMW:
				q.RMW(perm[s.th], op.Ord, op.Addr, op.Data, op.Dst, op.RMWOp)
			case c11.OpFence:
				q.FenceOp(perm[s.th], op.Ord)
			}
		}
	}
	for _, o := range mp.Observers {
		q.Observe(perm[o.Thread], o.Reg, o.Label)
	}
	for _, o := range mp.MemObservers {
		q.ObserveMem(o.Loc, o.Label)
	}
	return q
}

func reversePerm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// TestFingerprintDistinguishesSuite: all 1,701 paper-suite tests have
// distinct fingerprints (no accidental dedup collisions).
func TestFingerprintDistinguishesSuite(t *testing.T) {
	seen := map[string]string{}
	for _, tst := range PaperSuite() {
		fp := tst.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("fingerprint collision: %s and %s", prev, tst.Name)
		}
		seen[fp] = tst.Name
	}
}
