// Package c11 implements an axiomatic evaluator for the C11/C++11 memory
// model — the role played by the Herd C11 model in the TriCheck paper
// (Section 3.1). Given a multi-threaded C11 litmus test it enumerates
// candidate executions (via internal/mem) and filters them with the C11
// consistency axioms, yielding the set of allowed final-state outcomes.
//
// The model follows Batty et al.'s formalisation as used by the paper:
//
//   - happens-before hb = (sequenced-before ∪ synchronizes-with)+ with
//     release/acquire synchronization through C++11 release sequences,
//     including fence synchronization;
//   - coherence stated as irreflexivity of hb and of hb;eco where
//     eco = (rf ∪ mo ∪ fr)+ (equivalent to Batty's CoRR/CoWW/CoRW/CoWR
//     axioms but easier to audit);
//   - the ORIGINAL C11 sequential-consistency axiom: a strict total order S
//     over all SC events consistent with hb and mo, with the SC-read
//     restriction and the C++11 SC-fence rules. This is deliberately not
//     RC11's weaker psc axiom: the paper's counts (e.g. exactly 2 forbidden
//     RWC variants and 4 forbidden IRIW variants) depend on S being
//     consistent with the full happens-before relation;
//   - data races on non-atomic accesses make the program undefined, in
//     which case every candidate outcome is allowed.
//
// Consume ordering is not modelled (treated as unsupported), matching the
// paper's litmus suite which never uses memory_order_consume.
package c11

import (
	"fmt"

	"tricheck/internal/mem"
)

// Order is a C11 memory order (memory_order_* constants), plus NA for
// non-atomic accesses.
type Order uint8

// Memory orders. Con (consume) is intentionally absent.
const (
	// NA marks a non-atomic access; racy use is undefined behaviour.
	NA Order = iota
	// Rlx is memory_order_relaxed.
	Rlx
	// Acq is memory_order_acquire (loads and fences).
	Acq
	// Rel is memory_order_release (stores and fences).
	Rel
	// AcqRel is memory_order_acq_rel (RMWs and fences).
	AcqRel
	// SC is memory_order_seq_cst.
	SC
)

// String returns the conventional short name of the order.
func (o Order) String() string {
	switch o {
	case NA:
		return "na"
	case Rlx:
		return "rlx"
	case Acq:
		return "acq"
	case Rel:
		return "rel"
	case AcqRel:
		return "acq_rel"
	case SC:
		return "sc"
	}
	return fmt.Sprintf("Order(%d)", uint8(o))
}

// IsAcquire reports whether the order has acquire semantics on a load/fence.
func (o Order) IsAcquire() bool { return o == Acq || o == AcqRel || o == SC }

// IsRelease reports whether the order has release semantics on a store/fence.
func (o Order) IsRelease() bool { return o == Rel || o == AcqRel || o == SC }

// OpKind classifies a C11 operation.
type OpKind uint8

// Operation kinds.
const (
	// OpLoad is an atomic or non-atomic load.
	OpLoad OpKind = iota
	// OpStore is an atomic or non-atomic store.
	OpStore
	// OpRMW is an atomic read-modify-write.
	OpRMW
	// OpFence is a fence with the given order.
	OpFence
)

// Op is a single C11 operation as authored in a litmus test.
type Op struct {
	Kind OpKind
	Ord  Order
	// Addr is the accessed location (constant or register for an address
	// dependency). Unused for fences.
	Addr mem.Operand
	// Data is the stored value for stores / the RMW operand.
	Data mem.Operand
	// Dst receives the loaded value for loads/RMWs (mem.NoDst if unused).
	Dst int
	// RMWOp selects the RMW function when Kind == OpRMW.
	RMWOp mem.RMWKind
	// CtrlDepOn lists same-thread indices of loads this op is
	// control-dependent on.
	CtrlDepOn []int
}

// Program is a C11 litmus-test program. Build it with the Add* methods,
// then evaluate with Evaluate. The zero value is not usable; call New.
type Program struct {
	memp *mem.Program
	// Ops mirrors the per-thread structure for rendering.
	Ops [][]Op
	// per-GID memory order
	ord []Order
}

// New returns an empty program over nlocs locations with optional names.
func New(nlocs int, names ...string) *Program {
	return &Program{memp: mem.NewProgram(nlocs, names...)}
}

// Mem exposes the underlying event program (used by compile and tests).
func (p *Program) Mem() *mem.Program { return p.memp }

func (p *Program) add(t int, op Op) *mem.Event {
	var ev mem.Event
	switch op.Kind {
	case OpLoad:
		ev = mem.Event{Kind: mem.Read, Addr: op.Addr, Dst: op.Dst}
	case OpStore:
		ev = mem.Event{Kind: mem.Write, Addr: op.Addr, Data: op.Data, Dst: mem.NoDst}
	case OpRMW:
		ev = mem.Event{Kind: mem.RMW, Addr: op.Addr, Data: op.Data, Dst: op.Dst, RMWOp: op.RMWOp}
	case OpFence:
		ev = mem.Event{Kind: mem.Fence, Dst: mem.NoDst}
	}
	ev.CtrlDepOn = op.CtrlDepOn
	ev.Tag = len(p.ord)
	e := p.memp.Add(t, ev)
	for len(p.Ops) <= t {
		p.Ops = append(p.Ops, nil)
	}
	p.Ops[t] = append(p.Ops[t], op)
	p.ord = append(p.ord, op.Ord)
	return e
}

// Load appends "dst = load(addr, ord)" to thread t and returns its GID.
func (p *Program) Load(t int, ord Order, addr mem.Operand, dst int) int {
	return p.add(t, Op{Kind: OpLoad, Ord: ord, Addr: addr, Dst: dst}).GID
}

// Store appends "store(addr, data, ord)" to thread t and returns its GID.
func (p *Program) Store(t int, ord Order, addr, data mem.Operand) int {
	return p.add(t, Op{Kind: OpStore, Ord: ord, Addr: addr, Data: data}).GID
}

// RMW appends an atomic read-modify-write and returns its GID.
func (p *Program) RMW(t int, ord Order, addr, data mem.Operand, dst int, fn mem.RMWKind) int {
	return p.add(t, Op{Kind: OpRMW, Ord: ord, Addr: addr, Data: data, Dst: dst, RMWOp: fn}).GID
}

// FenceOp appends "atomic_thread_fence(ord)" to thread t and returns its GID.
func (p *Program) FenceOp(t int, ord Order) int {
	return p.add(t, Op{Kind: OpFence, Ord: ord}).GID
}

// LoadDep appends a load whose execution is control-dependent on the loads
// at the given same-thread indices.
func (p *Program) LoadDep(t int, ord Order, addr mem.Operand, dst int, ctrlDeps []int) int {
	return p.add(t, Op{Kind: OpLoad, Ord: ord, Addr: addr, Dst: dst, CtrlDepOn: ctrlDeps}).GID
}

// StoreDep appends a store with explicit control dependencies.
func (p *Program) StoreDep(t int, ord Order, addr, data mem.Operand, ctrlDeps []int) int {
	return p.add(t, Op{Kind: OpStore, Ord: ord, Addr: addr, Data: data, CtrlDepOn: ctrlDeps}).GID
}

// Observe registers thread t's register reg under the given outcome label.
func (p *Program) Observe(t, reg int, label string) {
	p.memp.AddObserver(t, reg, label)
}

// ObserveMem registers a location's final value under the given label.
func (p *Program) ObserveMem(loc mem.Loc, label string) {
	p.memp.AddMemObserver(loc, label)
}

// NumThreads returns the thread count.
func (p *Program) NumThreads() int { return p.memp.NumThreads() }

// String renders the program in a litmus-like textual form.
func (p *Program) String() string {
	s := ""
	for t, ops := range p.Ops {
		s += fmt.Sprintf("T%d:", t)
		for _, op := range ops {
			s += " " + p.opString(op) + ";"
		}
		s += "\n"
	}
	return s
}

func (p *Program) opString(op Op) string {
	loc := func(o mem.Operand) string {
		if o.Kind == mem.OpConst {
			return p.memp.LocName(mem.Loc(o.Const))
		}
		return fmt.Sprintf("[r%d]", o.Reg)
	}
	val := func(o mem.Operand) string {
		if o.Kind == mem.OpConst {
			return fmt.Sprintf("%d", o.Const)
		}
		return fmt.Sprintf("r%d", o.Reg)
	}
	switch op.Kind {
	case OpLoad:
		return fmt.Sprintf("r%d=ld(%s,%s)", op.Dst, loc(op.Addr), op.Ord)
	case OpStore:
		return fmt.Sprintf("st(%s,%s,%s)", loc(op.Addr), val(op.Data), op.Ord)
	case OpRMW:
		return fmt.Sprintf("r%d=rmw(%s,%s,%s)", op.Dst, loc(op.Addr), val(op.Data), op.Ord)
	case OpFence:
		return fmt.Sprintf("fence(%s)", op.Ord)
	}
	return "?"
}
