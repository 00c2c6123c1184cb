package uspec

import (
	"fmt"
	"slices"
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// TierCheck prepares each program it is given under each of its models
// twice over, whole (Prepare) and through one Tiers that every program
// shares (PrepareTiers), and requires the two to be equal: the CSR rows,
// the ports, the port closure, the dynamic sites, the coverage bits, and
// then the verdict on every candidate and the coverage, witnessing
// cycles included, after them. It is exported for the synthesized-corpus
// test, which lives in package uspec_test because synth imports this
// package through core.
type TierCheck struct {
	t     *testing.T
	c     *Tiers
	Hits  int // pairs whose threads all had a stored tier
	Pairs int // (program, model) pairs checked
}

// NewTierCheck returns a TierCheck whose Tiers spans the given number of
// models.
func NewTierCheck(t *testing.T, models int) *TierCheck {
	return &TierCheck{t: t, c: NewTiers(models)}
}

// Check compares the two preparations of prog under models, whose
// indexes in the Tiers start at first.
func (tc *TierCheck) Check(name string, prog *isa.Program, models []*Model, first int) {
	t := tc.t
	t.Helper()
	k := len(models)
	prs := tc.prepare(name, prog, models, first)
	defer closeAll(prs)
	err := mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
		for i, m := range models {
			if whole, tiered := prs[i].ExecutionObservable(x), prs[k+i].ExecutionObservable(x); whole != tiered {
				t.Errorf("%s on %s, execution %s: whole build %v, tiers %v", name, m.FullName(), x, whole, tiered)
				return false
			}
		}
		return true
	})
	if err != nil && err != mem.ErrStopped {
		t.Fatalf("%s: %v", name, err)
	}
	for i, m := range models {
		if a, b := prs[i].Coverage(), prs[k+i].Coverage(); a != b {
			t.Errorf("%s on %s: coverage after the candidates %+v whole, %+v from tiers", name, m.FullName(), a, b)
		}
	}
}

// prepare prepares prog under models whole, then through the Tiers, and
// compares each pair before any candidate. It returns the whole builds
// followed by the tiered ones.
func (tc *TierCheck) prepare(name string, prog *isa.Program, models []*Model, first int) []*Prepared {
	tc.t.Helper()
	pt := tc.c.Lookup(prog)
	k := len(models)
	prs := make([]*Prepared, 2*k)
	for i, m := range models {
		hit := pt.threads != nil
		for _, s := range pt.threads {
			hit = hit && s[first+i].tier.Load() != nil
		}
		if hit {
			tc.Hits++
		}
		tc.Pairs++
		prs[i], prs[k+i] = m.Prepare(prog), m.PrepareTiers(prog, pt, first+i)
		if d := staticDiff(prs[i], prs[k+i]); d != "" {
			tc.t.Errorf("%s on %s (stored tiers: %v): %s", name, m.FullName(), hit, d)
		}
	}
	return prs
}

func closeAll(prs []*Prepared) {
	for _, pr := range prs {
		pr.Close()
	}
}

// staticDiff describes how two Prepared values of one program and model
// differ before any candidate, or returns "".
func staticDiff(a, b *Prepared) string {
	n := a.skel.NumNodes()
	if b.skel.NumNodes() != n {
		return fmt.Sprintf("%d nodes whole, %d from tiers", n, b.skel.NumNodes())
	}
	aoff, adst, areason := a.skel.Rows(0, n)
	boff, bdst, breason := b.skel.Rows(0, n)
	switch {
	case !slices.Equal(aoff, boff) || !slices.Equal(adst, bdst):
		return fmt.Sprintf("CSR rows differ: off %v dst %v whole, off %v dst %v from tiers", aoff, adst, boff, bdst)
	case !slices.Equal(areason, breason):
		return fmt.Sprintf("CSR reasons differ: %v whole, %v from tiers", areason, breason)
	case !slices.Equal(a.ports, b.ports):
		return fmt.Sprintf("ports %v whole, %v from tiers", a.ports, b.ports)
	case a.cov != b.cov:
		return fmt.Sprintf("static coverage %+v whole, %+v from tiers", a.cov, b.cov)
	case !slices.Equal(a.b.pairs, b.b.pairs):
		return fmt.Sprintf("pairs %v whole, %v from tiers", a.b.pairs, b.b.pairs)
	case !slices.Equal(a.b.cumFences, b.b.cumFences) || !slices.Equal(a.b.lazyRels, b.b.lazyRels):
		return fmt.Sprintf("fences %v and releases %v whole, %v and %v from tiers", a.b.cumFences, a.b.lazyRels, b.b.cumFences, b.b.lazyRels)
	case a.cl.HasCycle() != b.cl.HasCycle():
		return fmt.Sprintf("skeleton cyclic %v whole, %v from tiers", a.cl.HasCycle(), b.cl.HasCycle())
	}
	if a.cl.HasCycle() || len(a.ports) > 64 {
		return ""
	}
	for p := range a.ports {
		if a.cl.Reach(p) != b.cl.Reach(p) {
			return fmt.Sprintf("port %d reaches %#x whole, %#x from tiers", p, a.cl.Reach(p), b.cl.Reach(p))
		}
	}
	return ""
}

// figure15 lists the Figure 15 mappings with their models' first index in
// a Tiers over Models(Curr) followed by Models(Ours).
var figure15 = []struct {
	mapping *compile.Mapping
	variant Variant
	first   int
}{
	{compile.RISCVBaseIntuitive, Curr, 0},
	{compile.RISCVBaseRefined, Ours, 7},
	{compile.RISCVAtomicsIntuitive, Curr, 0},
	{compile.RISCVAtomicsRefined, Ours, 7},
}

// TestTiersMatchWholeBuild assembles programs from the thread tiers of
// earlier programs, as a sweep does, and requires every one to equal its
// whole build: every paper test (every 4th under -short) on the 28
// Figure 15 stacks, and mp and sb on all 100 lattice configs under both
// ISA flavours.
func TestTiersMatchWholeBuild(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 4
	}
	compileOrFatal := func(mp *compile.Mapping, tst *litmus.Test) *isa.Program {
		t.Helper()
		prog, err := compile.Compile(mp, tst.Prog)
		if err != nil {
			t.Fatalf("compile %s: %v", tst.Name, err)
		}
		return prog
	}
	tc := NewTierCheck(t, 14)
	for _, tst := range sampledSuite(stride) {
		for _, f := range figure15 {
			tc.Check(tst.Name, compileOrFatal(f.mapping, tst), Models(f.variant), f.first)
		}
	}
	t.Logf("paper suite: %d of %d pairs assembled from stored tiers", tc.Hits, tc.Pairs)
	if tc.Hits == 0 {
		t.Error("no pair was assembled from tiers")
	}

	var lattice [2][]*Model
	for v := range lattice {
		for _, cfg := range EnumerateConfigs(Variant(v)) {
			lattice[v] = append(lattice[v], New(cfg))
		}
	}
	tc = NewTierCheck(t, len(lattice[0])+len(lattice[1]))
	for _, shape := range []*litmus.Shape{litmus.MP, litmus.SB} {
		for _, tst := range shape.Generate() {
			for _, f := range figure15 {
				first := 0
				if f.variant == Ours {
					first = len(lattice[Curr])
				}
				tc.Check(tst.Name, compileOrFatal(f.mapping, tst), lattice[f.variant], first)
			}
		}
	}
	t.Logf("mp and sb on the lattice: %d of %d pairs assembled from stored tiers", tc.Hits, tc.Pairs)
	if tc.Hits == 0 {
		t.Error("no pair was assembled from tiers")
	}
}

// TestStaticEdgesStayInOneThread holds the invariant the tiers rest on:
// every static edge joins two nodes of one thread, and the thread the
// static run charged its axiom to is that thread. It covers every 7th
// paper test (every 29th under -short) on both mappings of each variant
// under the 14 Table 7 models and all 100 lattice configs. No skeleton
// of a compiled program is statically cyclic; only a hand-built one is
// (TestTiersStoreNothingFromACyclicSkeleton).
func TestStaticEdgesStayInOneThread(t *testing.T) {
	stride := 7
	if testing.Short() {
		stride = 29
	}
	models := append(Models(Curr), Models(Ours)...)
	for _, v := range []Variant{Curr, Ours} {
		for _, cfg := range EnumerateConfigs(v) {
			models = append(models, New(cfg))
		}
	}
	edges, cyclic := 0, 0
	for _, tst := range sampledSuite(stride) {
		for _, f := range figure15 {
			prog, err := compile.Compile(f.mapping, tst.Prog)
			if err != nil {
				t.Fatalf("compile %s: %v", tst.Name, err)
			}
			for _, m := range models {
				if m.Variant != f.variant {
					continue
				}
				pr := m.Prepare(prog)
				if pr.cl.HasCycle() {
					cyclic++
				}
				thread := func(node int) int { return prog.Mem().Event(node / pr.b.K).Thread }
				charged := make([]uint64, len(pr.b.fired))
				pr.skel.ForEachEdge(func(from, to int, reason uint32) {
					edges++
					if thread(from) != thread(to) {
						t.Errorf("%s on %s+%s: static edge %d->%d (%s) joins threads %d and %d",
							tst.Name, f.mapping.Name, m.FullName(), from, to, Reason(reason), thread(from), thread(to))
					}
					charged[thread(from)] |= axiomBit(Reason(reason))
				})
				for th, bits := range charged {
					if bits&^pr.b.fired[th] != 0 {
						t.Errorf("%s on %s+%s: thread %d owns edges of axioms %#x it never fired", tst.Name, f.mapping.Name, m.FullName(), th, bits&^pr.b.fired[th])
					}
				}
				pr.Close()
			}
		}
	}
	t.Logf("%d static edges checked, %d statically cyclic skeletons", edges, cyclic)
	if cyclic != 0 {
		t.Errorf("%d compiled programs have a statically cyclic skeleton", cyclic)
	}
}

// TestTiersBuildInterleavedGIDsWhole: a hand-built program whose threads'
// events interleave in GID order has no contiguous node ranges, so its
// lookup holds no slots and it is always built whole.
func TestTiersBuildInterleavedGIDsWhole(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(1, riscv.SW(mem.Const(1), mem.Const(1)))
	p.Add(0, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.LW(1, mem.Const(0)))
	p.Observe(0, 0, "r0")
	p.Observe(1, 1, "r1")
	models := Models(Curr)
	tc := NewTierCheck(t, len(models))
	for range 3 {
		tc.Check("sb-interleaved", p, models, 0)
	}
	if pt := tc.c.Lookup(p); pt.threads != nil || len(tc.c.byCode) != 0 {
		t.Errorf("an interleaved program got %d thread slots and the cache holds %d codes", len(pt.threads), len(tc.c.byCode))
	}
	if tc.Hits != 0 {
		t.Errorf("%d pairs assembled from tiers", tc.Hits)
	}
}

// TestTiersBuildMultiwordPortsWhole: a program whose ports need more than
// one row word is built whole even when every thread's tier is stored,
// and stores no tier itself.
func TestTiersBuildMultiwordPortsWhole(t *testing.T) {
	stores := func(p *isa.Program, th int) {
		for l := range 4 {
			p.Add(th, riscv.SW(mem.Const(1), mem.Const(int64(l))))
		}
	}
	// small: four stores, then three one-load threads; big: four threads of
	// the four stores. Under nMCA with four cores a store has five ports,
	// so small has 23 and big 80. Big's candidates are too many to check;
	// its whole build is the point.
	small := isa.NewProgram(isa.RISCV, 4, "a", "b", "c", "d")
	stores(small, 0)
	for th := 1; th < 4; th++ {
		small.Add(th, riscv.LW(0, mem.Const(0)))
		small.Observe(th, 0, fmt.Sprintf("r%d", th))
	}
	big := isa.NewProgram(isa.RISCV, 4, "a", "b", "c", "d")
	for th := range 4 {
		stores(big, th)
	}
	models := []*Model{NMM(Curr)}
	tc := NewTierCheck(t, 1)
	for range 3 {
		tc.Check("small", small, models, 0)
	}
	if tc.Hits != 1 {
		t.Fatalf("small: %d pairs assembled from tiers, want the third", tc.Hits)
	}
	prs := tc.prepare("big", big, models, 0)
	defer closeAll(prs)
	if len(prs[0].ports) <= 64 || tc.Hits != 2 {
		t.Fatalf("big has %d ports, stored tiers for every thread: %v; want more than 64 and true", len(prs[0].ports), tc.Hits == 2)
	}

	fresh := NewTierCheck(t, 1)
	for range 3 {
		closeAll(fresh.prepare("big", big, models, 0))
	}
	if len(fresh.c.byCode) != 1 || fresh.Hits != 0 {
		t.Errorf("big alone: %d thread codes and %d pairs with stored tiers, want 1 and 0", len(fresh.c.byCode), fresh.Hits)
	}
}

// TestTiersStoreNothingFromACyclicSkeleton: no spec gives a valid
// program a statically cyclic skeleton, because every static edge runs
// from an earlier event or slot to a later one
// (TestStaticEdgesStayInOneThread counts none). A control dependency on
// a later load, which mem.Validate rejects, gives a hand-built program
// one. Such a program is built whole every time and stores no tier.
func TestTiersStoreNothingFromACyclicSkeleton(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	st := riscv.SW(mem.Const(1), mem.Const(0))
	st.CtrlDepOn = []int{1}
	p.Add(0, st)
	p.Add(0, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.SW(mem.Const(1), mem.Const(1)))
	models := Models(Curr)
	tc := NewTierCheck(t, len(models))
	for range 3 {
		prs := tc.prepare("ctrl-forward", p, models, 0)
		for i, pr := range prs {
			if !pr.cl.HasCycle() {
				t.Errorf("%s: the skeleton is acyclic", models[i%len(models)].FullName())
			}
		}
		closeAll(prs)
	}
	if tc.Hits != 0 {
		t.Errorf("%d pairs found every thread's tier stored", tc.Hits)
	}
}
