package opsim

import (
	"fmt"
	"math/rand"
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// nmcaDivergentSeeds are the randomProgram seeds on which the nWR
// machine and the axiomatic nWR model disagree (ROADMAP's nWR item).
// Their outcome sets are that item's evidence, so the reduction must
// leave them as the full search finds them.
var nmcaDivergentSeeds = []int64{
	13779060, 1998556283575476924, -4712169414628828802, 7758798147344437424,
	2457850465765582384, 6979553761810821207, 5385092208730319066,
	-6452747434353401278, 7383270728263714, -7771990083296139894,
	-8824457323438436735,
}

// machines are the four operational machines, each as a constructor
// over a compiled program.
var machines = []struct {
	name string
	new  func(*isa.Program) Enumerator
}{
	{"SC", func(p *isa.Program) Enumerator { return NewSC(p) }},
	{"WR", func(p *isa.Program) Enumerator { return New(p) }},
	{"TSO", func(p *isa.Program) Enumerator { return NewTSO(p) }},
	{"nWR", func(p *isa.Program) Enumerator { return NewNMCA(p) }},
}

// unreduced returns e's outcome set from the full search.
func unreduced(e Enumerator) map[mem.Outcome]bool {
	switch s := e.(type) {
	case *Simulator:
		s.full = true
	case *NMCASimulator:
		s.full = true
	}
	return e.Outcomes()
}

// checkReduced requires Outcomes' reduced search to reach exactly the
// outcomes the full search reaches on p, on every machine, and reports
// each outcome one side misses on a line of its own.
func checkReduced(t *testing.T, name string, p *isa.Program) {
	t.Helper()
	for _, m := range machines {
		got, want := m.new(p).Outcomes(), unreduced(m.new(p))
		for o := range want {
			if !got[o] {
				t.Errorf("%s on %s: the full search reaches %q, the reduced one does not", name, m.name, o)
			}
		}
		for o := range got {
			if !want[o] {
				t.Errorf("%s on %s: the reduced search reaches %q, the full one does not", name, m.name, o)
			}
		}
	}
}

// pointerPrograms are two programs whose only access to one location
// goes through a register address, which the nWR reduction has to count
// at every location:
//   - T1 loads y through a pointer it stored to x itself, so an apply of
//     y at T1 taken before that load loses r1=0;
//   - T1 stores to x through a pointer it loaded from y, so a drain of
//     T0's x taken as if T0 were x's sole writer loses final x=1.
func pointerPrograms() []*isa.Program {
	x, y := mem.Const(0), mem.Const(1)
	load := isa.NewProgram(isa.RISCV, 2, "x", "y")
	load.Add(0, riscv.SW(mem.Const(1), y))
	load.Add(1, riscv.SW(y, x)) // x holds the address of y
	load.Add(1, riscv.LW(0, x))
	load.Add(1, riscv.LW(1, mem.FromReg(0)))
	load.Observe(1, 0, "r0")
	load.Observe(1, 1, "r1")
	store := isa.NewProgram(isa.RISCV, 2, "x", "y")
	store.Add(0, riscv.SW(mem.Const(1), x))
	store.Add(1, riscv.LW(0, y)) // y holds 0, the address of x
	store.Add(1, riscv.SW(mem.Const(2), mem.FromReg(0)))
	store.Observe(1, 0, "r0")
	store.Mem().AddMemObserver(0, "x")
	return []*isa.Program{load, store}
}

// TestReducedOutcomesMatchFull checks the partial-order reduction of
// Outcomes against the full search on SC, WR, TSO and nWR. It runs the
// pinned and the nWR-divergent fuzz seeds, seeds 0–99 of randomProgram,
// pointerPrograms, and every fourth test of the paper suite without
// iriw plus the extended shapes under the four RISC-V mappings; those
// include mp-addr-dep's register addresses and the coherence shapes'
// writers to one location. The full search pays for almost all of it
// (seed 1's nWR search alone takes 2.6 s on 2 vCPUs), so -short checks
// every eighth of those seeds and litmus tests.
func TestReducedOutcomesMatchFull(t *testing.T) {
	sample := 1
	if testing.Short() {
		sample = 8
	}
	t.Run("random", func(t *testing.T) {
		t.Parallel()
		seeds := append(append([]int64{}, nmcaSeedCorpus...), nmcaDivergentSeeds...)
		for seed := range int64(100) {
			seeds = append(seeds, seed)
		}
		for i := 0; i < len(seeds); i += sample {
			checkReduced(t, fmt.Sprintf("seed %d", seeds[i]), randomProgram(rand.New(rand.NewSource(seeds[i]))))
		}
		for i, p := range pointerPrograms() {
			checkReduced(t, fmt.Sprintf("pointer program %d", i), p)
		}
	})
	var tests []*litmus.Test
	for _, sh := range append(litmus.PaperShapes(), litmus.ExtendedShapes()...) {
		if sh != litmus.IRIW {
			tests = append(tests, sh.Generate()...)
		}
	}
	for _, m := range []*compile.Mapping{
		compile.RISCVBaseIntuitive, compile.RISCVAtomicsIntuitive,
		compile.RISCVBaseRefined, compile.RISCVAtomicsRefined,
	} {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < len(tests); i += 4 * sample {
				p, err := compile.Compile(m, tests[i].Prog)
				if err != nil {
					t.Fatalf("%s: %v", tests[i].Name, err)
				}
				checkReduced(t, tests[i].Name, p)
			}
		})
	}
}
