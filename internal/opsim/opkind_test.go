package opsim

import (
	"testing"

	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// TestEveryOpKindThroughEveryLayer runs every instruction kind, and
// every AMO under each of {plain, aq, rl, aq.rl} with and without a
// destination, as the middle instruction of one thread that stores 2
// to x, runs it with operand 3 and loads x. Each program has exactly
// one outcome, and the candidate enumeration, every Table 7 model of
// both variants and the SC, WR, TSO and nWR machines must all give it:
// what an instruction does to memory is defined once, by the event
// isa.Program.Add emits for it.
func TestEveryOpKindThroughEveryLayer(t *testing.T) {
	x, three := mem.Const(0), mem.Const(3)
	type opCase struct {
		name string
		ins  isa.Instr
		want mem.Outcome
	}
	cases := []opCase{
		{"load", riscv.LW(0, x), "r0=2; r1=2; x=2"},
		{"store", riscv.SW(three, x), "r1=3; x=3"},
		{"fence", riscv.Fence(isa.ClassRW, isa.ClassRW), "r1=2; x=2"},
	}
	for _, a := range []struct {
		bits   string
		aq, rl bool
	}{{"", false, false}, {".aq", true, false}, {".rl", false, true}, {".aq.rl", true, true}} {
		cases = append(cases,
			opCase{"amoload" + a.bits, riscv.AMOLoad(0, x, a.aq, a.rl, false), "r0=2; r1=2; x=2"},
			opCase{"amostore" + a.bits, riscv.AMOStore(three, x, a.aq, a.rl, false), "r1=3; x=3"},
			opCase{"amoswap" + a.bits, riscv.AMOSwap(0, three, x, a.aq, a.rl, false), "r0=2; r1=3; x=3"},
			opCase{"amoswap" + a.bits + "-nodst", riscv.AMOSwap(mem.NoDst, three, x, a.aq, a.rl, false), "r1=3; x=3"},
			opCase{"amoadd" + a.bits, riscv.AMOAdd(0, three, x, a.aq, a.rl, false), "r0=2; r1=5; x=5"},
			opCase{"amoadd" + a.bits + "-nodst", riscv.AMOAdd(mem.NoDst, three, x, a.aq, a.rl, false), "r1=5; x=5"},
		)
	}
	if len(cases) != 27 {
		t.Fatalf("%d cases, want 27", len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := isa.NewProgram(isa.RISCV, 1, "x")
			p.Add(0, riscv.SW(mem.Const(2), x))
			p.Add(0, c.ins)
			p.Add(0, riscv.LW(1, x))
			if c.ins.Dst != mem.NoDst {
				p.Observe(0, 0, "r0")
			}
			p.Observe(0, 1, "r1")
			p.Mem().AddMemObserver(0, "x")
			check := func(layer string, got map[mem.Outcome]bool) {
				t.Helper()
				if len(got) != 1 || !got[c.want] {
					t.Errorf("%s: outcomes %v, want only %q", layer, got, c.want)
				}
			}
			all, err := mem.Outcomes(p.Mem())
			if err != nil {
				t.Fatal(err)
			}
			check("mem.Outcomes", all)
			for _, v := range []uspec.Variant{uspec.Curr, uspec.Ours} {
				for _, m := range uspec.Models(v) {
					r, err := m.Evaluate(p)
					if err != nil {
						t.Fatal(err)
					}
					check(m.FullName(), r.Observable)
				}
			}
			for _, m := range []struct {
				name string
				e    Enumerator
			}{{"SC", NewSC(p)}, {"WR", New(p)}, {"TSO", NewTSO(p)}, {"nWR", NewNMCA(p)}} {
				check(m.name+" machine", m.e.Outcomes())
			}
		})
	}
}
