package isa

import (
	"strings"
	"testing"

	"tricheck/internal/mem"
)

// TestOpKindClassification pins IsAMO and the read and write parts of
// the memory event Program.Add emits for each kind.
func TestOpKindClassification(t *testing.T) {
	cases := []struct {
		op        OpKind
		amo       bool
		read, wrt bool
	}{
		{OpLoad, false, true, false},
		{OpStore, false, false, true},
		{OpAMOLoad, true, true, false}, // silent write-back
		{OpAMOStore, true, true, true},
		{OpAMOSwap, true, true, true},
		{OpAMOAdd, true, true, true},
		{OpFence, false, false, false},
	}
	p := NewProgram(RISCV, 1, "x")
	for _, c := range cases {
		if c.op.IsAMO() != c.amo {
			t.Errorf("%v: IsAMO = %v, want %v", c.op, c.op.IsAMO(), c.amo)
		}
		p.Add(0, Instr{Op: c.op, Addr: mem.Const(0), Data: mem.Const(1), Dst: mem.NoDst})
		ev := p.Mem().Threads[0][len(p.Mem().Threads[0])-1]
		if ev.IsRead() != c.read {
			t.Errorf("%v: event IsRead = %v, want %v", c.op, ev.IsRead(), c.read)
		}
		if ev.IsWrite() != c.wrt {
			t.Errorf("%v: event IsWrite = %v, want %v", c.op, ev.IsWrite(), c.wrt)
		}
	}
}

func TestClassBits(t *testing.T) {
	if !ClassRW.HasR() || !ClassRW.HasW() {
		t.Error("ClassRW must include both")
	}
	if ClassR.HasW() || ClassW.HasR() {
		t.Error("single classes must not overlap")
	}
	if ClassR.String() != "r" || ClassW.String() != "w" || ClassRW.String() != "rw" {
		t.Errorf("class names: %s %s %s", ClassR, ClassW, ClassRW)
	}
	if Class(0).String() != "none" {
		t.Errorf("empty class renders %q", Class(0))
	}
}

func TestProgramEventMapping(t *testing.T) {
	p := NewProgram(RISCV, 2, "x", "y")
	p.Add(0, Instr{Op: OpStore, Addr: mem.Const(0), Data: mem.Const(1), Dst: mem.NoDst})
	p.Add(0, Instr{Op: OpFence, Pred: ClassRW, Succ: ClassW, Dst: mem.NoDst})
	p.Add(0, Instr{Op: OpAMOStore, Addr: mem.Const(1), Data: mem.Const(1), Dst: mem.NoDst, Rl: true})
	p.Add(1, Instr{Op: OpAMOLoad, Addr: mem.Const(1), Dst: 0, Aq: true})
	p.Add(1, Instr{Op: OpLoad, Addr: mem.Const(0), Dst: 1})
	events := p.Mem().Events()
	wantKinds := []mem.Kind{mem.Write, mem.Fence, mem.RMW, mem.Read, mem.Read}
	if len(events) != len(wantKinds) {
		t.Fatalf("%d events, want %d", len(events), len(wantKinds))
	}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
	}
	// InstrOf round-trips.
	for _, e := range events {
		ins := p.InstrOf(e.GID)
		if ins == nil {
			t.Fatalf("InstrOf(%d) nil", e.GID)
		}
	}
	if p.NumThreads() != 2 {
		t.Errorf("NumThreads = %d", p.NumThreads())
	}
}

func TestAMOStoreKeepsAtomicity(t *testing.T) {
	// Two AMO stores to one location must serialize through coherence
	// (their reads participate in RMW atomicity).
	p := NewProgram(RISCV, 1, "x")
	p.Add(0, Instr{Op: OpAMOStore, Addr: mem.Const(0), Data: mem.Const(1), Dst: mem.NoDst})
	p.Add(1, Instr{Op: OpAMOStore, Addr: mem.Const(0), Data: mem.Const(2), Dst: mem.NoDst})
	xs, err := mem.Executions(p.Mem())
	if err != nil {
		t.Fatal(err)
	}
	// Two serialization orders only.
	if len(xs) != 2 {
		t.Fatalf("%d executions, want 2", len(xs))
	}
}

func TestRenderCoversAllOps(t *testing.T) {
	p := NewProgram(RISCV, 1, "x")
	instrs := []Instr{
		{Op: OpLoad, Addr: mem.Const(0), Dst: 0},
		{Op: OpStore, Addr: mem.Const(0), Data: mem.Const(1), Dst: mem.NoDst},
		{Op: OpAMOLoad, Addr: mem.Const(0), Dst: 1, Aq: true},
		{Op: OpAMOStore, Addr: mem.Const(0), Data: mem.Const(2), Dst: mem.NoDst, Rl: true, SCBit: true},
		{Op: OpAMOSwap, Addr: mem.Const(0), Data: mem.Const(3), Dst: 2},
		{Op: OpAMOAdd, Addr: mem.Const(0), Data: mem.FromReg(0), Dst: 3},
		{Op: OpFence, Pred: ClassR, Succ: ClassRW, Dst: mem.NoDst},
		{Op: OpFence, Pred: ClassRW, Succ: ClassRW, Cum: CumLW, Dst: mem.NoDst},
		{Op: OpFence, Pred: ClassRW, Succ: ClassRW, Cum: CumHW, Dst: mem.NoDst},
	}
	for _, ins := range instrs {
		p.Add(0, ins)
	}
	out := p.String()
	for _, want := range []string{"load", "store", "amoload.aq", "amostore.rl.sc", "amoswap", "amoadd", "fence r, rw", "lightweight", "heavyweight"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestArchAndCumulativityNames(t *testing.T) {
	for _, a := range []Arch{RISCV, Power, ARMv7} {
		if a.String() == "" || strings.HasPrefix(a.String(), "Arch(") {
			t.Errorf("arch %d has no name", a)
		}
	}
	for _, c := range []Cumulativity{CumNone, CumLW, CumHW} {
		if c.String() == "" || strings.HasPrefix(c.String(), "Cum(") {
			t.Errorf("cumulativity %d has no name", c)
		}
	}
}
