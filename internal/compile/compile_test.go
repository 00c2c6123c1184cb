package compile

import (
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/isa"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

func compileTest(t *testing.T, m *Mapping, p *c11.Program) *isa.Program {
	t.Helper()
	out, err := Compile(m, p)
	if err != nil {
		t.Fatalf("Compile(%s): %v", m.Name, err)
	}
	return out
}

// ops flattens thread t of the compiled program into op kinds.
func kinds(p *isa.Program, t int) []isa.OpKind {
	var out []isa.OpKind
	for _, ins := range p.Instrs[t] {
		out = append(out, ins.Op)
	}
	return out
}

// TestTable2BaseMappings checks the Intuitive column of Table 2 against the
// paper: ld acq = ld; f[r,m] — ld sc = f[m,m]; ld; f[m,m] — st rel =
// f[m,w]; st — st sc = f[m,m]; st.
func TestTable2BaseMappings(t *testing.T) {
	cases := []struct {
		recipe Recipe
		want   []Item
	}{
		{RISCVBaseIntuitive.LoadAcq, []Item{Access(), F(isa.ClassR, isa.ClassRW)}},
		{RISCVBaseIntuitive.LoadSC, []Item{F(isa.ClassRW, isa.ClassRW), Access(), F(isa.ClassRW, isa.ClassRW)}},
		{RISCVBaseIntuitive.StoreRel, []Item{F(isa.ClassRW, isa.ClassW), Access()}},
		{RISCVBaseIntuitive.StoreSC, []Item{F(isa.ClassRW, isa.ClassRW), Access()}},
	}
	for i, c := range cases {
		if len(c.recipe) != len(c.want) {
			t.Fatalf("case %d: recipe length %d, want %d", i, len(c.recipe), len(c.want))
		}
		for j := range c.want {
			if c.recipe[j] != c.want[j] {
				t.Errorf("case %d item %d = %+v, want %+v", i, j, c.recipe[j], c.want[j])
			}
		}
	}
	// Refined: lwf before releases, hwf before SC.
	if RISCVBaseRefined.StoreRel[0].Cum != isa.CumLW {
		t.Error("refined st rel must start with the cumulative lightweight fence")
	}
	if RISCVBaseRefined.StoreSC[0].Cum != isa.CumHW || RISCVBaseRefined.LoadSC[0].Cum != isa.CumHW {
		t.Error("refined SC accesses must use the cumulative heavyweight fence")
	}
}

// TestTable3AtomicsMappings checks Table 3: acquire→AMO.aq, release→AMO.rl,
// SC intuitive→AMO.aq.rl, SC refined→AMO.aq.sc / AMO.rl.sc.
func TestTable3AtomicsMappings(t *testing.T) {
	check := func(r Recipe, aq, rl, sc bool) {
		t.Helper()
		if len(r) != 1 || r[0].Kind != KAMO {
			t.Fatalf("recipe %+v: want a single AMO", r)
		}
		if r[0].Aq != aq || r[0].Rl != rl || r[0].SC != sc {
			t.Errorf("recipe %+v: want aq=%v rl=%v sc=%v", r, aq, rl, sc)
		}
	}
	check(RISCVAtomicsIntuitive.LoadAcq, true, false, false)
	check(RISCVAtomicsIntuitive.LoadSC, true, true, false)
	check(RISCVAtomicsIntuitive.StoreRel, false, true, false)
	check(RISCVAtomicsIntuitive.StoreSC, true, true, false)
	check(RISCVAtomicsRefined.LoadSC, true, false, true)
	check(RISCVAtomicsRefined.StoreSC, false, true, true)
}

// TestPowerLeadingSyncTable1 checks Table 1: ld acq = ld; ctrlisync — ld sc
// = hwsync; ld; ctrlisync — st rel = lwsync; st — st sc = hwsync; st.
func TestPowerLeadingSyncTable1(t *testing.T) {
	m := PowerLeadingSync
	if m.LoadAcq[1].Pred != isa.ClassR || m.LoadAcq[1].Cum != isa.CumNone {
		t.Error("ld acq must end with ctrlisync (non-cumulative R→RW)")
	}
	if m.LoadSC[0].Cum != isa.CumHW {
		t.Error("leading-sync ld sc must start with hwsync")
	}
	if m.StoreRel[0].Cum != isa.CumLW || m.StoreSC[0].Cum != isa.CumHW {
		t.Error("st rel/sc must lead with lwsync/hwsync")
	}
	// Trailing: sync after SC accesses.
	if PowerTrailingSync.LoadSC[1].Cum != isa.CumHW {
		t.Error("trailing-sync ld sc must end with hwsync")
	}
	if PowerTrailingSync.StoreSC[2].Cum != isa.CumHW || PowerTrailingSync.StoreSC[0].Cum != isa.CumLW {
		t.Error("trailing-sync st sc must be lwsync; st; hwsync")
	}
}

// TestFigure8WRCBaseCompilation reproduces the paper's Figure 8: the WRC
// variant of Figure 3 compiled with the intuitive Base mapping yields
// exactly sw / lw; fence rw,w; sw / lw; fence r,rw; lw.
func TestFigure8WRCBaseCompilation(t *testing.T) {
	tst := litmus.WRC.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	p := compileTest(t, RISCVBaseIntuitive, tst.Prog)
	want := [][]isa.OpKind{
		{isa.OpStore},
		{isa.OpLoad, isa.OpFence, isa.OpStore},
		{isa.OpLoad, isa.OpFence, isa.OpLoad},
	}
	for th := range want {
		got := kinds(p, th)
		if len(got) != len(want[th]) {
			t.Fatalf("T%d: %v, want %v", th, got, want[th])
		}
		for i := range got {
			if got[i] != want[th][i] {
				t.Errorf("T%d[%d] = %v, want %v", th, i, got[i], want[th][i])
			}
		}
	}
	// Figure 8's fences: T1's is fence rw,w; T2's is fence r,rw.
	if f := p.Instrs[1][1]; f.Pred != isa.ClassRW || f.Succ != isa.ClassW {
		t.Errorf("T1 fence = %v,%v, want rw,w", f.Pred, f.Succ)
	}
	if f := p.Instrs[2][1]; f.Pred != isa.ClassR || f.Succ != isa.ClassRW {
		t.Errorf("T2 fence = %v,%v, want r,rw", f.Pred, f.Succ)
	}
}

// TestFigure10WRCAtomicsCompilation reproduces Figure 10: WRC under the
// intuitive Base+A mapping becomes sw / lw; amoswap.rl / amoadd.aq; lw.
func TestFigure10WRCAtomicsCompilation(t *testing.T) {
	tst := litmus.WRC.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	p := compileTest(t, RISCVAtomicsIntuitive, tst.Prog)
	if got := kinds(p, 1); got[0] != isa.OpLoad || got[1] != isa.OpAMOStore {
		t.Fatalf("T1 = %v, want lw; amostore", got)
	}
	rel := p.Instrs[1][1]
	if rel.Aq || !rel.Rl {
		t.Errorf("T1 release AMO bits aq=%v rl=%v, want rl only", rel.Aq, rel.Rl)
	}
	acq := p.Instrs[2][0]
	if acq.Op != isa.OpAMOLoad || !acq.Aq || acq.Rl {
		t.Errorf("T2 acquire = %+v, want AMOLoad.aq", acq)
	}
}

// TestObserversPreserved: the compiled program exposes the same observers,
// so HLL and ISA outcomes are directly comparable.
func TestObserversPreserved(t *testing.T) {
	tst := litmus.IRIW.Instantiate([]c11.Order{c11.SC, c11.SC, c11.SC, c11.SC, c11.SC, c11.SC})
	for _, m := range Mappings() {
		p := compileTest(t, m, tst.Prog)
		hllObs := tst.Prog.Mem().Observers
		isaObs := p.Mem().Observers
		if len(hllObs) != len(isaObs) {
			t.Fatalf("%s: observer count %d, want %d", m.Name, len(isaObs), len(hllObs))
		}
		for i := range hllObs {
			if hllObs[i] != isaObs[i] {
				t.Errorf("%s: observer %d = %+v, want %+v", m.Name, i, isaObs[i], hllObs[i])
			}
		}
	}
}

// TestOutcomeUniversePreserved: compilation must not change the candidate
// outcome universe — same observers, same writes, same value space.
func TestOutcomeUniversePreserved(t *testing.T) {
	for _, shape := range []*litmus.Shape{litmus.MP, litmus.WRC, litmus.SB} {
		tst := shape.Instantiate(allOrders(shape, c11.Rlx, c11.Rel, c11.Acq))
		hllOut, err := mem.Outcomes(tst.Prog.Mem())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Mapping{RISCVBaseIntuitive, RISCVBaseRefined, PowerLeadingSync} {
			p := compileTest(t, m, tst.Prog)
			isaOut, err := mem.Outcomes(p.Mem())
			if err != nil {
				t.Fatal(err)
			}
			for o := range hllOut {
				if !isaOut[o] {
					t.Errorf("%s/%s: HLL outcome %q missing at ISA level", shape.Name, m.Name, o)
				}
			}
		}
	}
}

// allOrders assigns ldOrd to loads and the matching store orders to stores.
func allOrders(s *litmus.Shape, stOrd, stAlt, ldOrd c11.Order) []c11.Order {
	out := make([]c11.Order, len(s.Slots))
	for i, k := range s.Slots {
		if k == litmus.StoreSlot {
			if i%2 == 0 {
				out[i] = stOrd
			} else {
				out[i] = stAlt
			}
		} else {
			out[i] = ldOrd
		}
	}
	return out
}

// TestControlDependencyReindexing: a control-dependent store must point at
// the access instruction of its source load even when fences are emitted
// in between.
func TestControlDependencyReindexing(t *testing.T) {
	p := c11.New(2, "x", "y")
	x, y := mem.Const(0), mem.Const(1)
	g := p.Load(0, c11.Acq, x, 0)
	_ = g
	p.StoreDep(0, c11.Rel, y, mem.Const(1), []int{0})
	p.Observe(0, 0, "r0")
	out := compileTest(t, RISCVBaseIntuitive, p)
	// T0 compiles to: lw; fence r,rw; fence rw,w; sw. The sw's control dep
	// must reference instruction 0 (the lw).
	var sw *isa.Instr
	for _, ins := range out.Instrs[0] {
		if ins.Op == isa.OpStore {
			sw = ins
		}
	}
	if sw == nil {
		t.Fatal("no store emitted")
	}
	if len(sw.CtrlDepOn) != 1 || sw.CtrlDepOn[0] != 0 {
		t.Fatalf("store CtrlDepOn = %v, want [0]", sw.CtrlDepOn)
	}
	if out.Instrs[0][0].Op != isa.OpLoad {
		t.Fatalf("instruction 0 is %v, want the load", out.Instrs[0][0].Op)
	}
}

// TestAddressDependencyCarriedThrough: register operands survive
// compilation (Figure 13/14 correspondence).
func TestAddressDependencyCarriedThrough(t *testing.T) {
	tst := litmus.MPAddrDep.Instantiate([]c11.Order{c11.Rel, c11.Rel, c11.Rlx, c11.Acq})
	for _, m := range []*Mapping{RISCVBaseIntuitive, RISCVAtomicsIntuitive} {
		p := compileTest(t, m, tst.Prog)
		found := false
		for _, e := range p.Mem().Threads[1] {
			if e.IsRead() && e.Addr.Kind == mem.OpReg {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: address dependency lost in compilation", m.Name)
		}
	}
}

func TestMappingValidate(t *testing.T) {
	for _, m := range Mappings() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := &Mapping{Name: "bad", LoadRlx: Recipe{F(isa.ClassR, isa.ClassR)}}
	if err := bad.Validate(); err == nil {
		t.Error("mapping without an access item must fail validation")
	}
	bad2 := Recipe{Access(), Access()}
	if err := bad2.Validate(); err == nil {
		t.Error("recipe with two accesses must fail validation")
	}
}

func TestMappingByName(t *testing.T) {
	for _, m := range Mappings() {
		if MappingByName(m.Name) != m {
			t.Errorf("MappingByName(%s) broken", m.Name)
		}
	}
	if MappingByName("nope") != nil {
		t.Error("MappingByName(nope) should be nil")
	}
}

// TestCompileFenceProgram: C11 fences lower through the fence recipes.
func TestCompileFenceProgram(t *testing.T) {
	p := c11.New(2, "x", "y")
	x, y := mem.Const(0), mem.Const(1)
	p.Store(0, c11.Rlx, x, mem.Const(1))
	p.FenceOp(0, c11.Rel)
	p.Store(0, c11.Rlx, y, mem.Const(1))
	p.Load(1, c11.Rlx, y, 0)
	p.FenceOp(1, c11.Acq)
	p.Load(1, c11.Rlx, x, 1)
	p.Observe(1, 0, "r0")
	p.Observe(1, 1, "r1")
	out := compileTest(t, RISCVBaseRefined, p)
	if out.Instrs[0][1].Op != isa.OpFence || out.Instrs[0][1].Cum != isa.CumLW {
		t.Errorf("release fence should compile to lwf under the refined mapping, got %+v", out.Instrs[0][1])
	}
	s := strings.TrimSpace(out.String())
	if s == "" {
		t.Error("empty rendering")
	}
}
