// Package isa defines the instruction-level vocabulary shared by the
// RISC-V and Power/ARMv7 backends: loads, stores, atomic memory operations
// (AMOs) with acquire/release/store-atomicity annotations, and fences with
// predecessor/successor access classes and a cumulativity level.
//
// One vocabulary intentionally covers both ISAs (Section 2.3.3 of the paper
// makes the correspondence explicit): Power's sync is a cumulative
// heavyweight fence, lwsync a cumulative lightweight fence, and the
// ctrl+isync idiom is a non-cumulative FENCE R,RW. The per-ISA subpackages
// provide mnemonic constructors and assembly rendering.
package isa

import (
	"fmt"
	"strings"

	"tricheck/internal/mem"
)

// Arch identifies the target instruction set.
type Arch uint8

// Architectures.
const (
	// RISCV is the RISC-V Base or Base+A ISA (paper Section 4).
	RISCV Arch = iota
	// Power is the IBM Power subset used in Section 7.
	Power
	// ARMv7 shares the Power modelling (dmb ≈ sync, ctrlisb ≈ ctrlisync).
	ARMv7
)

// String returns the architecture name.
func (a Arch) String() string {
	switch a {
	case RISCV:
		return "riscv"
	case Power:
		return "power"
	case ARMv7:
		return "armv7"
	}
	return fmt.Sprintf("Arch(%d)", uint8(a))
}

// Class is a bitmask of access classes used in fence predecessor/successor
// sets (the RISC-V FENCE pr/pw/sr/sw bits).
type Class uint8

// Access classes.
const (
	// ClassR selects reads.
	ClassR Class = 1 << iota
	// ClassW selects writes.
	ClassW
	// ClassRW selects both.
	ClassRW = ClassR | ClassW
)

// HasR reports whether the class includes reads.
func (c Class) HasR() bool { return c&ClassR != 0 }

// HasW reports whether the class includes writes.
func (c Class) HasW() bool { return c&ClassW != 0 }

// String renders the class in RISC-V fence-operand style.
func (c Class) String() string {
	s := ""
	if c.HasR() {
		s += "r"
	}
	if c.HasW() {
		s += "w"
	}
	if s == "" {
		s = "none"
	}
	return s
}

// Cumulativity is a fence's cumulativity level (paper Section 2.3.2).
type Cumulativity uint8

// Cumulativity levels.
const (
	// CumNone is a plain fence ordering only the issuing thread's accesses
	// (the current RISC-V FENCE).
	CumNone Cumulativity = iota
	// CumLW is a cumulative lightweight fence (Power lwsync; the paper's
	// proposed RISC-V lwf): orders R→R, R→W and W→W including observed
	// remote writes, but never W→R.
	CumLW
	// CumHW is a cumulative heavyweight fence (Power sync / ARM dmb; the
	// proposed RISC-V hwf): all four orderings with full propagation.
	CumHW
)

// String names the cumulativity level.
func (c Cumulativity) String() string {
	switch c {
	case CumNone:
		return "plain"
	case CumLW:
		return "cum-lw"
	case CumHW:
		return "cum-hw"
	}
	return fmt.Sprintf("Cum(%d)", uint8(c))
}

// OpKind classifies an instruction.
type OpKind uint8

// Instruction kinds.
const (
	// OpLoad is an ordinary load.
	OpLoad OpKind = iota
	// OpStore is an ordinary store.
	OpStore
	// OpAMOLoad is an AMO used as an atomic load: AMOADD of zero returning
	// the old value (paper Section 5.2). Its write-back of the unchanged
	// value is modelled as a silent store — coherence-invisible — matching
	// the paper's AMO-as-load treatment; the instruction still carries AMO
	// ordering annotations and always reads at the memory system (never
	// forwarded from a store buffer).
	OpAMOLoad
	// OpAMOStore is an AMO used as an atomic store: AMOSWAP discarding the
	// old value.
	OpAMOStore
	// OpAMOSwap is a general AMOSWAP returning the old value.
	OpAMOSwap
	// OpAMOAdd is a general AMOADD returning the old value.
	OpAMOAdd
	// OpFence is a fence with Pred/Succ classes and a Cumulativity.
	OpFence
)

// IsAMO reports whether the kind is any read-modify-write.
func (k OpKind) IsAMO() bool {
	return k == OpAMOLoad || k == OpAMOStore || k == OpAMOSwap || k == OpAMOAdd
}

// Instr is a single instruction. Construct via the per-ISA subpackages or
// directly for tests.
type Instr struct {
	Op   OpKind
	Addr mem.Operand
	Data mem.Operand
	Dst  int
	// Pred and Succ are the fence's access classes (OpFence only).
	Pred, Succ Class
	// Cum is the fence's cumulativity (OpFence only).
	Cum Cumulativity
	// Aq, Rl and SCBit are the AMO annotation bits. SCBit is the paper's
	// proposed store-atomicity decoupling (Section 5.2.2); in the current
	// RISC-V MCM store atomicity is implied by Aq&&Rl instead.
	Aq, Rl, SCBit bool
	// CtrlDepOn lists same-thread instruction indices of loads this
	// instruction is control-dependent on.
	CtrlDepOn []int
}

// Program is an instruction-level litmus program over shared locations.
type Program struct {
	Arch Arch
	// Instrs holds per-thread instruction lists.
	Instrs [][]*Instr

	memp    *mem.Program
	instrOf []*Instr // by event GID
	// chunks batches Instr storage (stable pointers, one allocation per
	// chunk instead of one per instruction — compilation is per-job work
	// on cold sweeps). Reset rewinds cur so a recycled program refills
	// the same chunks.
	chunks [][]Instr
	cur    int
}

// NewProgram returns an empty program for the given architecture.
func NewProgram(arch Arch, nlocs int, names ...string) *Program {
	return &Program{Arch: arch, memp: mem.NewProgram(nlocs, names...)}
}

// Reset empties the program for reuse with a new architecture and
// location set, keeping instruction and event storage. The caller must
// not retain instructions or events from the previous generation.
func (p *Program) Reset(arch Arch, nlocs int, names ...string) {
	p.Arch = arch
	for i := range p.Instrs {
		p.Instrs[i] = p.Instrs[i][:0]
	}
	p.Instrs = p.Instrs[:0]
	p.instrOf = p.instrOf[:0]
	for i := range p.chunks {
		p.chunks[i] = p.chunks[i][:0]
	}
	p.cur = 0
	p.memp.Reset(nlocs, names...)
}

// Mem exposes the underlying event program.
func (p *Program) Mem() *mem.Program { return p.memp }

// InstrOf returns the instruction that produced the event with GID gid.
func (p *Program) InstrOf(gid int) *Instr { return p.instrOf[gid] }

// Add appends instruction ins to thread t and returns its per-thread index.
// The memory event it emits is the one definition of what the
// instruction does to memory: the candidate enumeration and the
// operational machines both execute that event, and the instruction
// keeps only its ordering annotations.
func (p *Program) Add(t int, ins Instr) int {
	var ev mem.Event
	switch ins.Op {
	case OpLoad:
		ev = mem.Event{Kind: mem.Read, Addr: ins.Addr, Dst: ins.Dst}
	case OpStore:
		ev = mem.Event{Kind: mem.Write, Addr: ins.Addr, Data: ins.Data, Dst: mem.NoDst}
	case OpAMOLoad:
		// Silent write-back: the event is a read at the memory system.
		ev = mem.Event{Kind: mem.Read, Addr: ins.Addr, Dst: ins.Dst}
	case OpAMOStore:
		ev = mem.Event{Kind: mem.RMW, Addr: ins.Addr, Data: ins.Data, Dst: mem.NoDst, RMWOp: mem.RMWSwap}
	case OpAMOSwap:
		ev = mem.Event{Kind: mem.RMW, Addr: ins.Addr, Data: ins.Data, Dst: ins.Dst, RMWOp: mem.RMWSwap}
	case OpAMOAdd:
		ev = mem.Event{Kind: mem.RMW, Addr: ins.Addr, Data: ins.Data, Dst: ins.Dst, RMWOp: mem.RMWAdd}
	case OpFence:
		ev = mem.Event{Kind: mem.Fence, Dst: mem.NoDst}
	}
	ev.CtrlDepOn = ins.CtrlDepOn
	var ch *[]Instr
	for {
		if p.cur == len(p.chunks) {
			p.chunks = append(p.chunks, make([]Instr, 0, 8))
		}
		ch = &p.chunks[p.cur]
		if len(*ch) < cap(*ch) {
			break
		}
		p.cur++
	}
	*ch = append(*ch, ins)
	pi := &(*ch)[len(*ch)-1]
	e := p.memp.Add(t, ev)
	for len(p.Instrs) <= t {
		if len(p.Instrs) < cap(p.Instrs) {
			// Re-expose a row truncated by Reset, keeping its capacity.
			p.Instrs = p.Instrs[:len(p.Instrs)+1]
		} else {
			p.Instrs = append(p.Instrs, nil)
		}
	}
	p.Instrs[t] = append(p.Instrs[t], pi)
	p.instrOf = append(p.instrOf, pi)
	return e.Index
}

// Observe registers an outcome observer (thread-local register + label).
func (p *Program) Observe(t, reg int, label string) { p.memp.AddObserver(t, reg, label) }

// NumThreads returns the thread count.
func (p *Program) NumThreads() int { return p.memp.NumThreads() }

// String renders the program as per-thread pseudo-assembly.
func (p *Program) String() string {
	var b strings.Builder
	for t, th := range p.Instrs {
		fmt.Fprintf(&b, "T%d:\n", t)
		for _, ins := range th {
			fmt.Fprintf(&b, "  %s\n", p.Render(ins))
		}
	}
	return b.String()
}

// Render pretty-prints one instruction using generic mnemonics; the per-ISA
// subpackages provide native spellings.
func (p *Program) Render(ins *Instr) string {
	loc := func(o mem.Operand) string {
		if o.Kind == mem.OpConst {
			return "(" + p.memp.LocName(mem.Loc(o.Const)) + ")"
		}
		return fmt.Sprintf("(r%d)", o.Reg)
	}
	val := func(o mem.Operand) string {
		if o.Kind == mem.OpConst {
			return fmt.Sprintf("%d", o.Const)
		}
		return fmt.Sprintf("r%d", o.Reg)
	}
	amoBits := func() string {
		s := ""
		if ins.Aq {
			s += ".aq"
		}
		if ins.Rl {
			s += ".rl"
		}
		if ins.SCBit {
			s += ".sc"
		}
		return s
	}
	switch ins.Op {
	case OpLoad:
		return fmt.Sprintf("load r%d, %s", ins.Dst, loc(ins.Addr))
	case OpStore:
		return fmt.Sprintf("store %s, %s", val(ins.Data), loc(ins.Addr))
	case OpAMOLoad:
		return fmt.Sprintf("amoload%s r%d, %s", amoBits(), ins.Dst, loc(ins.Addr))
	case OpAMOStore:
		return fmt.Sprintf("amostore%s %s, %s", amoBits(), val(ins.Data), loc(ins.Addr))
	case OpAMOSwap:
		return fmt.Sprintf("amoswap%s r%d, %s, %s", amoBits(), ins.Dst, val(ins.Data), loc(ins.Addr))
	case OpAMOAdd:
		return fmt.Sprintf("amoadd%s r%d, %s, %s", amoBits(), ins.Dst, val(ins.Data), loc(ins.Addr))
	case OpFence:
		switch ins.Cum {
		case CumLW:
			return "fence.lw (cumulative lightweight)"
		case CumHW:
			return "fence.hw (cumulative heavyweight)"
		}
		return fmt.Sprintf("fence %s, %s", ins.Pred, ins.Succ)
	}
	return "?"
}
