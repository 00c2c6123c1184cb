// Package compile implements TriCheck's HLL→ISA compilation step (step 2 of
// the Figure 6 toolflow): mapping tables from C11 atomic operations to ISA
// instruction sequences, and a compiler that lowers a C11 litmus program to
// an isa.Program while preserving registers, dependencies and outcome
// observers.
//
// The shipped mappings are the paper's Tables 1–3 plus the trailing-sync
// Power mapping examined in Section 7:
//
//	RISCVBaseIntuitive / RISCVBaseRefined         (Table 2)
//	RISCVAtomicsIntuitive / RISCVAtomicsRefined   (Table 3)
//	PowerLeadingSync                              (Table 1)
//	PowerTrailingSync                             (Batty et al., §7)
package compile

import (
	"fmt"
	"sync"

	"tricheck/internal/c11"
	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// progPool recycles compiled programs between verification jobs. A cold
// sweep compiles one program per (test, stack) job and discards it as
// soon as the verdict is computed, so the instruction and event arenas
// otherwise dominate the toolflow's allocation profile.
var progPool sync.Pool

func acquireProgram(arch isa.Arch, nlocs int, names ...string) *isa.Program {
	if v := progPool.Get(); v != nil {
		p := v.(*isa.Program)
		p.Reset(arch, nlocs, names...)
		return p
	}
	return isa.NewProgram(arch, nlocs, names...)
}

// ReleaseProgram returns a compiled program to the pool for reuse by a
// later Compile. The caller must not retain p or any of its
// instructions or events afterwards.
func ReleaseProgram(p *isa.Program) {
	if p != nil {
		progPool.Put(p)
	}
}

// ItemKind classifies a recipe element.
type ItemKind uint8

// Recipe element kinds.
const (
	// KFence emits a fence.
	KFence ItemKind = iota
	// KAccess emits the access itself as a plain load/store.
	KAccess
	// KAMO emits the access as an AMO (AMOADD-zero for loads, AMOSWAP for
	// stores) with the item's annotation bits.
	KAMO
)

// Item is one element of a mapping recipe.
type Item struct {
	Kind       ItemKind
	Pred, Succ isa.Class        // KFence
	Cum        isa.Cumulativity // KFence
	Aq, Rl, SC bool             // KAMO
}

// F builds a plain fence item.
func F(pred, succ isa.Class) Item { return Item{Kind: KFence, Pred: pred, Succ: succ} }

// LWF builds a cumulative lightweight fence item.
func LWF() Item {
	return Item{Kind: KFence, Pred: isa.ClassRW, Succ: isa.ClassRW, Cum: isa.CumLW}
}

// HWF builds a cumulative heavyweight fence item.
func HWF() Item {
	return Item{Kind: KFence, Pred: isa.ClassRW, Succ: isa.ClassRW, Cum: isa.CumHW}
}

// Access builds the plain-access item.
func Access() Item { return Item{Kind: KAccess} }

// AMO builds the AMO-access item with annotation bits.
func AMO(aq, rl, sc bool) Item { return Item{Kind: KAMO, Aq: aq, Rl: rl, SC: sc} }

// Recipe is the instruction sequence a C11 operation lowers to. Exactly one
// item must be KAccess or KAMO.
type Recipe []Item

// Validate checks the one-access invariant.
func (r Recipe) Validate() error {
	n := 0
	for _, it := range r {
		if it.Kind == KAccess || it.Kind == KAMO {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("compile: recipe must contain exactly one access, has %d", n)
	}
	return nil
}

// Mapping is a complete C11→ISA compiler mapping.
type Mapping struct {
	// Name identifies the mapping ("riscv-base-intuitive", ...).
	Name string
	// Description cites the paper table it reproduces.
	Description string
	// Arch is the target architecture.
	Arch isa.Arch
	// Load and store recipes per C11 memory order. NA compiles like Rlx.
	LoadRlx, LoadAcq, LoadSC    Recipe
	StoreRlx, StoreRel, StoreSC Recipe
	// Fence recipes for C11 atomic_thread_fence.
	FenceAcq, FenceRel, FenceAcqRel, FenceSC Recipe
}

// Validate checks every recipe.
func (m *Mapping) Validate() error {
	for _, r := range []Recipe{m.LoadRlx, m.LoadAcq, m.LoadSC, m.StoreRlx, m.StoreRel, m.StoreSC} {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
	}
	return nil
}

// loadRecipe selects the recipe for a load of the given order.
func (m *Mapping) loadRecipe(o c11.Order) (Recipe, error) {
	switch o {
	case c11.NA, c11.Rlx:
		return m.LoadRlx, nil
	case c11.Acq:
		return m.LoadAcq, nil
	case c11.SC:
		return m.LoadSC, nil
	}
	return nil, fmt.Errorf("compile: no load recipe for order %v", o)
}

// storeRecipe selects the recipe for a store of the given order.
func (m *Mapping) storeRecipe(o c11.Order) (Recipe, error) {
	switch o {
	case c11.NA, c11.Rlx:
		return m.StoreRlx, nil
	case c11.Rel:
		return m.StoreRel, nil
	case c11.SC:
		return m.StoreSC, nil
	}
	return nil, fmt.Errorf("compile: no store recipe for order %v", o)
}

// fenceRecipe selects the recipe for a C11 fence.
func (m *Mapping) fenceRecipe(o c11.Order) (Recipe, error) {
	switch o {
	case c11.Acq:
		return m.FenceAcq, nil
	case c11.Rel:
		return m.FenceRel, nil
	case c11.AcqRel:
		return m.FenceAcqRel, nil
	case c11.SC:
		return m.FenceSC, nil
	}
	return nil, fmt.Errorf("compile: no fence recipe for order %v", o)
}

// Compile lowers a C11 program to the target ISA. Registers keep their
// numbers, syntactic address/data dependencies carry over via operands,
// control dependencies are re-indexed to the emitted access instructions,
// and observers are copied, so outcomes from both levels are directly
// comparable.
func Compile(m *Mapping, p *c11.Program) (*isa.Program, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	hll := p.Mem()
	out := acquireProgram(m.Arch, hll.NumLocs, hll.LocNames...)
	for t, ops := range p.Ops {
		// accessIdx maps the C11 per-thread op index to the per-thread
		// index of its emitted access instruction, for control deps.
		accessIdx := make([]int, len(ops))
		for i := range ops {
			op := &ops[i] // by index: an Op is large enough to copy through duffcopy
			var recipe Recipe
			var err error
			switch op.Kind {
			case c11.OpLoad:
				recipe, err = m.loadRecipe(op.Ord)
			case c11.OpStore:
				recipe, err = m.storeRecipe(op.Ord)
			case c11.OpFence:
				recipe, err = m.fenceRecipe(op.Ord)
			case c11.OpRMW:
				return nil, fmt.Errorf("compile: C11 RMWs are not part of the paper's mappings")
			}
			if err != nil {
				return nil, err
			}
			ctrl := make([]int, 0, len(op.CtrlDepOn))
			for _, d := range op.CtrlDepOn {
				ctrl = append(ctrl, accessIdx[d])
			}
			for _, item := range recipe {
				var ins isa.Instr
				switch item.Kind {
				case KFence:
					ins = isa.Instr{Op: isa.OpFence, Pred: item.Pred, Succ: item.Succ, Cum: item.Cum, Dst: mem.NoDst}
				case KAccess:
					if op.Kind == c11.OpLoad {
						ins = isa.Instr{Op: isa.OpLoad, Addr: op.Addr, Dst: op.Dst}
					} else {
						ins = isa.Instr{Op: isa.OpStore, Addr: op.Addr, Data: op.Data, Dst: mem.NoDst}
					}
					ins.CtrlDepOn = ctrl
				case KAMO:
					if op.Kind == c11.OpLoad {
						ins = isa.Instr{Op: isa.OpAMOLoad, Addr: op.Addr, Dst: op.Dst}
					} else {
						ins = isa.Instr{Op: isa.OpAMOStore, Addr: op.Addr, Data: op.Data, Dst: mem.NoDst}
					}
					ins.Aq, ins.Rl, ins.SCBit = item.Aq, item.Rl, item.SC
					ins.CtrlDepOn = ctrl
				}
				idx := out.Add(t, ins)
				if item.Kind != KFence {
					accessIdx[i] = idx
				}
			}
		}
	}
	for _, ob := range hll.Observers {
		out.Observe(ob.Thread, ob.Reg, ob.Label)
	}
	for _, ob := range hll.MemObservers {
		out.Mem().AddMemObserver(ob.Loc, ob.Label)
	}
	return out, nil
}

// The paper's mapping tables. r/w/m in Table 2 correspond to
// ClassR/ClassW/ClassRW here.
var (
	// RISCVBaseIntuitive is Table 2's "Intuitive" column: the mapping a
	// compiler writer would derive from the current RISC-V manual.
	RISCVBaseIntuitive = &Mapping{
		Name:        "riscv-base-intuitive",
		Description: "Table 2, Intuitive C11 → RISC-V Base mapping",
		Arch:        isa.RISCV,
		LoadRlx:     Recipe{Access()},
		LoadAcq:     Recipe{Access(), F(isa.ClassR, isa.ClassRW)},
		LoadSC:      Recipe{F(isa.ClassRW, isa.ClassRW), Access(), F(isa.ClassRW, isa.ClassRW)},
		StoreRlx:    Recipe{Access()},
		StoreRel:    Recipe{F(isa.ClassRW, isa.ClassW), Access()},
		StoreSC:     Recipe{F(isa.ClassRW, isa.ClassRW), Access()},
		FenceAcq:    Recipe{F(isa.ClassR, isa.ClassRW)},
		FenceRel:    Recipe{F(isa.ClassRW, isa.ClassW)},
		FenceAcqRel: Recipe{F(isa.ClassRW, isa.ClassRW)},
		FenceSC:     Recipe{F(isa.ClassRW, isa.ClassRW)},
	}

	// RISCVBaseRefined is Table 2's "Refined" column: release stores use
	// the proposed cumulative lightweight fence, SC accesses the proposed
	// cumulative heavyweight fence.
	RISCVBaseRefined = &Mapping{
		Name:        "riscv-base-refined",
		Description: "Table 2, Refined C11 → RISC-V Base mapping (riscv-ours)",
		Arch:        isa.RISCV,
		LoadRlx:     Recipe{Access()},
		LoadAcq:     Recipe{Access(), F(isa.ClassR, isa.ClassRW)},
		LoadSC:      Recipe{HWF(), Access(), F(isa.ClassR, isa.ClassRW)},
		StoreRlx:    Recipe{Access()},
		StoreRel:    Recipe{LWF(), Access()},
		StoreSC:     Recipe{HWF(), Access()},
		FenceAcq:    Recipe{F(isa.ClassR, isa.ClassRW)},
		FenceRel:    Recipe{LWF()},
		FenceAcqRel: Recipe{LWF()},
		FenceSC:     Recipe{HWF()},
	}

	// RISCVAtomicsIntuitive is Table 3's "Intuitive" column. SC atomics use
	// AMO.aq.rl, which the current spec makes store atomic.
	RISCVAtomicsIntuitive = &Mapping{
		Name:        "riscv-base+a-intuitive",
		Description: "Table 3, Intuitive C11 → RISC-V Base+A mapping",
		Arch:        isa.RISCV,
		LoadRlx:     Recipe{Access()},
		LoadAcq:     Recipe{AMO(true, false, false)},
		LoadSC:      Recipe{AMO(true, true, false)},
		StoreRlx:    Recipe{Access()},
		StoreRel:    Recipe{AMO(false, true, false)},
		StoreSC:     Recipe{AMO(true, true, false)},
		FenceAcq:    Recipe{F(isa.ClassR, isa.ClassRW)},
		FenceRel:    Recipe{F(isa.ClassRW, isa.ClassW)},
		FenceAcqRel: Recipe{F(isa.ClassRW, isa.ClassRW)},
		FenceSC:     Recipe{F(isa.ClassRW, isa.ClassRW)},
	}

	// RISCVAtomicsRefined is Table 3's "Refined" column: the proposed ".sc"
	// bit supplies store atomicity without the roach-motel-blocking extra
	// acquire/release semantics (Section 5.2.2).
	RISCVAtomicsRefined = &Mapping{
		Name:        "riscv-base+a-refined",
		Description: "Table 3, Refined C11 → RISC-V Base+A mapping (riscv-ours)",
		Arch:        isa.RISCV,
		LoadRlx:     Recipe{Access()},
		LoadAcq:     Recipe{AMO(true, false, false)},
		LoadSC:      Recipe{AMO(true, false, true)},
		StoreRlx:    Recipe{Access()},
		StoreRel:    Recipe{AMO(false, true, false)},
		StoreSC:     Recipe{AMO(false, true, true)},
		FenceAcq:    Recipe{F(isa.ClassR, isa.ClassRW)},
		FenceRel:    Recipe{LWF()},
		FenceAcqRel: Recipe{LWF()},
		FenceSC:     Recipe{HWF()},
	}

	// PowerLeadingSync is Table 1: McKenney & Silvera's leading-sync C11 →
	// Power mapping, the one the paper adopts after Section 7.
	PowerLeadingSync = &Mapping{
		Name:        "power-leading-sync",
		Description: "Table 1, leading-sync C11 → Power mapping",
		Arch:        isa.Power,
		LoadRlx:     Recipe{Access()},
		LoadAcq:     Recipe{Access(), F(isa.ClassR, isa.ClassRW)}, // ld; ctrlisync
		LoadSC:      Recipe{HWF(), Access(), F(isa.ClassR, isa.ClassRW)},
		StoreRlx:    Recipe{Access()},
		StoreRel:    Recipe{LWF(), Access()},
		StoreSC:     Recipe{HWF(), Access()},
		FenceAcq:    Recipe{LWF()},
		FenceRel:    Recipe{LWF()},
		FenceAcqRel: Recipe{LWF()},
		FenceSC:     Recipe{HWF()},
	}

	// PowerTrailingSync is the trailing-sync mapping of Batty et al. whose
	// proof loophole Section 7 exposes: SC loads are ld; hwsync and SC
	// stores lwsync; st; hwsync.
	PowerTrailingSync = &Mapping{
		Name:        "power-trailing-sync",
		Description: "Trailing-sync C11 → Power mapping (Section 7 counterexamples)",
		Arch:        isa.Power,
		LoadRlx:     Recipe{Access()},
		LoadAcq:     Recipe{Access(), F(isa.ClassR, isa.ClassRW)},
		LoadSC:      Recipe{Access(), HWF()},
		StoreRlx:    Recipe{Access()},
		StoreRel:    Recipe{LWF(), Access()},
		StoreSC:     Recipe{LWF(), Access(), HWF()},
		FenceAcq:    Recipe{LWF()},
		FenceRel:    Recipe{LWF()},
		FenceAcqRel: Recipe{LWF()},
		FenceSC:     Recipe{HWF()},
	}
)

// Mappings returns every shipped mapping.
func Mappings() []*Mapping {
	return []*Mapping{
		RISCVBaseIntuitive, RISCVBaseRefined,
		RISCVAtomicsIntuitive, RISCVAtomicsRefined,
		PowerLeadingSync, PowerTrailingSync,
		ARMv7Standard, ARMv7HazardFix,
		X86TSO,
	}
}

// MappingByName finds a mapping by name, or nil.
func MappingByName(name string) *Mapping {
	for _, m := range Mappings() {
		if m.Name == name {
			return m
		}
	}
	return nil
}
