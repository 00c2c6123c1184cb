package uspec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// firstExecution returns the first candidate execution of a program.
func firstExecution(t *testing.T, p *isa.Program) *mem.Execution {
	t.Helper()
	var out *mem.Execution
	err := mem.Enumerate(p.Mem(), func(x *mem.Execution) bool {
		out = x.Clone()
		return false
	})
	if err != nil && err != mem.ErrStopped {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no executions")
	}
	return out
}

// executionWhere returns the first execution satisfying pred.
func executionWhere(t *testing.T, p *isa.Program, pred func(*mem.Execution) bool) *mem.Execution {
	t.Helper()
	var out *mem.Execution
	err := mem.Enumerate(p.Mem(), func(x *mem.Execution) bool {
		if pred(x) {
			out = x.Clone()
			return false
		}
		return true
	})
	if err != nil && err != mem.ErrStopped {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no execution matches predicate")
	}
	return out
}

// TestGraphPipelineEdges: the in-order skeleton is present and labelled.
func TestGraphPipelineEdges(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 1, "x")
	p.Add(0, riscv.LW(0, mem.Const(0)))
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	x := firstExecution(t, p)
	m := NMM(Curr)
	g := m.BuildGraph(p, x)
	if !g.Acyclic() {
		t.Fatal("trivial program must be acyclic")
	}
	// Fetch order between the two instructions.
	b := g.b
	if !g.s.HasEdge(b.fetch(0), b.fetch(1)) {
		t.Error("missing po-fetch edge")
	}
	if r := g.reason(b.fetch(0), b.fetch(1)); r != "po-fetch" {
		t.Errorf("fetch edge reason = %q", r)
	}
	if !strings.Contains(g.Label(b.fetch(0)), "Fetch") {
		t.Errorf("fetch label = %q", g.Label(b.fetch(0)))
	}
}

// TestSameAddrWWPointwiseEdges: same-address stores get per-core pointwise
// visibility edges even on W→W-relaxing nMCA models.
func TestSameAddrWWPointwiseEdges(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 1, "x")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.SW(mem.Const(2), mem.Const(0)))
	p.Add(1, riscv.LW(0, mem.Const(0)))
	x := firstExecution(t, p)
	m := NMM(Curr) // RelaxWW
	g := m.BuildGraph(p, x)
	b := g.b
	for c := 0; c < 2; c++ {
		if !g.s.HasEdge(b.visTo(0, c), b.visTo(1, c)) {
			t.Errorf("missing same-address W→W visibility edge for core %d", c)
		}
	}
}

// TestDifferentAddrWWRelaxed: different-address stores are unordered on
// RelaxWW models and ordered on FIFO ones.
func TestDifferentAddrWWRelaxed(t *testing.T) {
	build := func(m *Model) (hasEdge bool) {
		p := isa.NewProgram(isa.RISCV, 2, "x", "y")
		p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
		p.Add(0, riscv.SW(mem.Const(1), mem.Const(1)))
		x := firstExecution(t, p)
		g := m.BuildGraph(p, x)
		b := g.b
		return g.s.HasEdge(b.visTo(0, 0), b.visTo(1, 0))
	}
	if build(RWM(Curr)) {
		t.Error("rWM must not order different-address stores")
	}
	if !build(RWR(Curr)) {
		t.Error("rWR must order different-address stores (FIFO drain)")
	}
}

// TestDependencyEdges: address/data/control dependencies produce
// perform→execute edges, and AlphaLike drops them.
func TestDependencyEdges(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	p.Add(0, riscv.LW(0, mem.Const(1)))   // r0 = y
	p.Add(0, riscv.LW(1, mem.FromReg(0))) // r1 = [r0]: address dep
	ins := riscv.SW(mem.FromReg(1), mem.Const(1))
	ins.CtrlDepOn = []int{0}
	p.Add(0, ins) // data dep on r1, ctrl dep on instr 0
	x := executionWhere(t, p, func(x *mem.Execution) bool {
		return x.LocOf[1] != mem.LocNone // dependent load resolved
	})
	m := NMM(Curr)
	g := m.BuildGraph(p, x)
	b := g.b
	if !g.s.HasEdge(b.perform(0), b.exec(1)) {
		t.Error("missing address-dependency edge")
	}
	if !g.s.HasEdge(b.perform(1), b.exec(2)) {
		t.Error("missing data-dependency edge")
	}
	if !g.s.HasEdge(b.perform(0), b.exec(2)) {
		t.Error("missing control-dependency edge")
	}
	alpha := AlphaLike()
	g2 := alpha.BuildGraph(p, x)
	if g2.s.HasEdge(b.perform(0), b.exec(1)) {
		t.Error("AlphaLike must not add dependency edges")
	}
}

// TestForwardingEdge: a same-thread load of a buffered store reads from
// SBEnter under forwarding models and from the visibility node otherwise.
func TestForwardingEdge(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 1, "x")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.LW(0, mem.Const(0)))
	x := firstExecution(t, p) // CoWR forces rf from the store
	fwd := RWR(Curr)
	g := fwd.BuildGraph(p, x)
	b := g.b
	if !g.s.HasEdge(b.sbEnter(0), b.perform(1)) {
		t.Error("rWR: missing rf-forward edge")
	}
	nofwd := WR(Curr)
	g2 := nofwd.BuildGraph(p, x)
	b2 := g2.b
	if g2.s.HasEdge(b2.sbEnter(0), b2.perform(1)) {
		t.Error("WR: must not forward from the store buffer")
	}
	if !g2.s.HasEdge(b2.visTo(0, 0), b2.perform(1)) {
		t.Error("WR: load must wait for the store's visibility")
	}
}

// TestAcumWritesComputation: the A-cumulative predecessor set of a fence
// contains rf-sources of pre-fence reads, closed over their threads'
// earlier reads.
func TestAcumWritesComputation(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 3, "x", "y", "z")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0))) // gid 0: Wx on T0
	p.Add(1, riscv.LW(0, mem.Const(0)))            // gid 1: T1 reads x
	p.Add(1, riscv.SW(mem.Const(1), mem.Const(1))) // gid 2: Wy on T1
	p.Add(2, riscv.LW(0, mem.Const(1)))            // gid 3: T2 reads y
	p.Add(2, riscv.FenceLW())                      // gid 4: cumulative fence
	p.Add(2, riscv.SW(mem.Const(1), mem.Const(2))) // gid 5: Wz
	// Choose the execution where T1 reads Wx and T2 reads Wy.
	x := executionWhere(t, p, func(x *mem.Execution) bool {
		return x.RF[1] == 0 && x.RF[3] == 2
	})
	m := NMM(Ours)
	b := &builder{m: m, p: p, x: x, ev: p.Mem().Events()}
	acum := map[int]bool{}
	for _, w := range b.acumAppend(p.Mem().Threads[2], 1, nil) {
		acum[w] = true
	}
	if !acum[2] {
		t.Error("A-cum must contain the directly observed write Wy")
	}
	if !acum[0] {
		t.Error("A-cum must recursively contain Wx (observed by T1 before Wy)")
	}
	if acum[5] {
		t.Error("A-cum must not contain the fencing thread's own later store")
	}
}

// TestReleaseChainWalk: the ISA-level release sequence follows AMO
// write-backs to their sources, and stops at a non-AMO write.
func TestReleaseChainWalk(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 1, "x")
	p.Add(0, riscv.AMOStore(mem.Const(1), mem.Const(0), false, true, false)) // gid 0: release
	p.Add(1, riscv.AMOSwap(0, mem.Const(2), mem.Const(0), false, false, false))
	// gid 1 swaps, reading gid 0's write, which reads the initial value.
	p.Add(2, riscv.SW(mem.Const(3), mem.Const(0))) // gid 2: off the chain
	x := executionWhere(t, p, func(x *mem.Execution) bool { return x.RF[1] == 0 && x.RF[0] == mem.InitWrite })
	m := NMM(Ours)
	b := &builder{m: m, p: p, x: x, ev: p.Mem().Events()}
	for _, c := range []struct {
		target int
		want   bool
	}{{1, true}, {0, true}, {2, false}} {
		if got := b.releaseChainContains(1, c.target); got != c.want {
			t.Errorf("release chain from the swap contains gid %d = %v, want %v", c.target, got, c.want)
		}
	}
}

// TestA9likeCacheNodes: the A9like topology routes store visibility through
// GetM nodes.
func TestA9likeCacheNodes(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 1, "x")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(1, riscv.LW(0, mem.Const(0)))
	x := firstExecution(t, p)
	m := A9like(Curr)
	g := m.BuildGraph(p, x)
	b := g.b
	if !g.s.HasEdge(b.sbEnter(0), b.getM(0)) {
		t.Error("A9like: missing SBEnter→GetM edge")
	}
	if !g.s.HasEdge(b.getM(0), b.visTo(0, 1)) {
		t.Error("A9like: missing GetM→visibility edge")
	}
	nmm := NMM(Curr)
	g2 := nmm.BuildGraph(p, x)
	if g2.s.HasEdge(b.sbEnter(0), b.getM(0)) {
		t.Error("nMM must not use cache-protocol nodes")
	}
}

// TestQuickOrderStrengtheningMonotone: strengthening one memory-order slot
// of a litmus variant never makes new outcomes observable — a cross-layer
// monotonicity property tying compile and uspec together.
func TestQuickOrderStrengtheningMonotone(t *testing.T) {
	shapes := []*litmus.Shape{litmus.MP, litmus.SB, litmus.CoRR}
	stronger := func(o c11.Order, k litmus.SlotKind) c11.Order {
		switch o {
		case c11.Rlx:
			if k == litmus.StoreSlot {
				return c11.Rel
			}
			return c11.Acq
		default:
			return c11.SC
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[rng.Intn(len(shapes))]
		orders := make([]c11.Order, len(shape.Slots))
		for i, k := range shape.Slots {
			cs := k.Choices()
			orders[i] = cs[rng.Intn(len(cs))]
		}
		slot := rng.Intn(len(orders))
		strengthened := append([]c11.Order(nil), orders...)
		strengthened[slot] = stronger(orders[slot], shape.Slots[slot])
		model := Models(Curr)[rng.Intn(7)]
		weakTest := shape.Instantiate(orders)
		strongTest := shape.Instantiate(strengthened)
		wp, err := compile.Compile(compile.RISCVBaseIntuitive, weakTest.Prog)
		if err != nil {
			return false
		}
		sp, err := compile.Compile(compile.RISCVBaseIntuitive, strongTest.Prog)
		if err != nil {
			return false
		}
		wres, err := model.Evaluate(wp)
		if err != nil {
			return false
		}
		sres, err := model.Evaluate(sp)
		if err != nil {
			return false
		}
		for o := range sres.Observable {
			if !wres.Observable[o] {
				t.Logf("shape %s orders %v slot %d model %s: outcome %s observable only when stronger",
					shape.Name, orders, slot, model.FullName(), o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
