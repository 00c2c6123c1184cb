// Package opsim provides an operational (interleaving-based) simulator for
// the WR microarchitecture — the strongest Table 7 model: in-order cores,
// a FIFO store buffer per core without forwarding, and multi-copy-atomic
// memory. It exhaustively explores every interleaving of instruction
// execution and store-buffer drain events and collects the reachable final
// states.
//
// Its purpose is cross-validation: internal/uspec decides observability
// axiomatically (µhb graph acyclicity), opsim decides it operationally.
// On the WR model the two semantics must agree exactly — the
// TestOperationalMatchesAxiomatic tests check outcome-set equality in both
// directions, which exercises the rf/fr/ws/fence/AMO axioms against an
// independent implementation.
package opsim

import (
	"encoding/binary"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// sbEntry is one buffered store.
type sbEntry struct {
	loc mem.Loc
	val int64
}

// operand returns op's value to a thread whose registers are regs.
func operand(regs []int64, op mem.Operand) int64 {
	if op.Kind == mem.OpConst {
		return op.Const
	}
	return regs[op.Reg]
}

// addr returns the location ins addresses, to a thread whose registers
// are regs.
func addr(regs []int64, ins *isa.Instr) mem.Loc { return mem.Loc(operand(regs, ins.Addr)) }

// state is a full machine configuration. States are memoized by their
// appendKey encoding.
type state struct {
	pc   []int
	regs [][]int64
	sb   [][]sbEntry
	mem  []int64
}

// cloneInto copies s into c, reusing c's slices, and returns c.
func (s *state) cloneInto(c *state) *state {
	c.pc = append(c.pc[:0], s.pc...)
	c.mem = append(c.mem[:0], s.mem...)
	c.regs = copyRows(c.regs, s.regs)
	c.sb = copyRows(c.sb, s.sb)
	return c
}

// reg returns thread t's register r.
func (s *state) reg(t, r int) int64 { return s.regs[t][r] }

// final returns location l's value in memory.
func (s *state) final(l mem.Loc) int64 { return s.mem[l] }

// appendKey appends s's visited-set key to buf: a length-prefixed varint
// encoding of pc, regs, mem and the store buffers, so two states share a
// key exactly when they are equal.
func (s *state) appendKey(buf []byte) []byte {
	buf = appendInts(buf, s.pc)
	buf = appendRows(buf, s.regs)
	buf = appendInts(buf, s.mem)
	return appendBuffers(buf, s.sb)
}

// copyRows copies src into dst, reusing dst's rows where the shapes
// already match (every state of one simulator has the same shape).
func copyRows[T any](dst, src [][]T) [][]T {
	if len(dst) != len(src) {
		dst = make([][]T, len(src))
	}
	for i, row := range src {
		dst[i] = append(dst[i][:0], row...)
	}
	return dst
}

func appendInts[T ~int | ~int64](buf []byte, xs []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

func appendRows[T ~int | ~int64](buf []byte, rows [][]T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = appendInts(buf, r)
	}
	return buf
}

func appendBuffers(buf []byte, sb [][]sbEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(sb)))
	for _, q := range sb {
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, e := range q {
			buf = binary.AppendVarint(buf, int64(e.loc))
			buf = binary.AppendVarint(buf, e.val)
		}
	}
	return buf
}

// Simulator explores a program on the operational WR (or, with
// Forwarding, TSO) machine.
type Simulator struct {
	search
	maxRegs []int
	free    []*state // explored successors, recycled by next
	// Forwarding lets plain loads read the newest same-address entry of
	// the local store buffer instead of stalling — turning the WR machine
	// into an x86-TSO-like one (cross-checked against uspec.TSO).
	Forwarding bool
	// WriteThrough retires stores directly to memory instead of the store
	// buffer. With in-order cores and MCA memory the buffer was the only
	// relaxation, so the machine becomes sequentially consistent
	// (cross-checked against the no-relaxations uspec SC config).
	WriteThrough bool
}

// New returns a simulator for the program on the WR machine.
func New(p *isa.Program) *Simulator {
	s := &Simulator{maxRegs: regWidths(p)}
	s.search = search{p: p, root: func() bool { return s.explore(s.initial()) }}
	return s
}

// regWidths returns, per thread, the number of registers its
// instructions name.
func regWidths(p *isa.Program) []int {
	widths := make([]int, p.NumThreads())
	for t, th := range p.Instrs {
		max := 0
		for _, ins := range th {
			if ins.Dst != mem.NoDst && ins.Dst+1 > max {
				max = ins.Dst + 1
			}
			for _, op := range []mem.Operand{ins.Addr, ins.Data} {
				if op.Kind == mem.OpReg && op.Reg+1 > max {
					max = op.Reg + 1
				}
			}
		}
		widths[t] = max
	}
	return widths
}

// NewTSO returns a simulator with store-buffer forwarding enabled.
func NewTSO(p *isa.Program) *Simulator {
	s := New(p)
	s.Forwarding = true
	return s
}

// NewSC returns a write-through simulator: the sequentially consistent
// machine of the no-relaxations µspec baseline.
func NewSC(p *isa.Program) *Simulator {
	s := New(p)
	s.WriteThrough = true
	return s
}

// initial returns the reset configuration: pcs, registers and memory at
// zero, store buffers empty.
func (s *Simulator) initial() *state {
	init := &state{
		pc:   make([]int, s.p.NumThreads()),
		mem:  make([]int64, s.p.Mem().NumLocs),
		regs: make([][]int64, s.p.NumThreads()),
		sb:   make([][]sbEntry, s.p.NumThreads()),
	}
	for t := range init.regs {
		init.regs[t] = make([]int64, s.maxRegs[t])
	}
	return init
}

// next returns a copy of st in a recycled state; release it once
// explored.
func (s *Simulator) next(st *state) *state {
	var c *state
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
	} else {
		c = &state{}
	}
	return st.cloneInto(c)
}

func (s *Simulator) release(st *state) { s.free = append(s.free, st) }

// drain retires thread t's oldest store-buffer entry to memory. The
// buffer shifts in place, so a recycled state keeps its capacity.
func drain(st *state, t int) {
	e := st.sb[t][0]
	st.sb[t] = append(st.sb[t][:0], st.sb[t][1:]...)
	st.mem[e.loc] = e.val
}

// explore enumerates st's transitions: per thread, drain the oldest
// store-buffer entry, then execute the next instruction if not blocked.
// It reports whether it reached Trace's target (see search).
func (s *Simulator) explore(st *state) bool {
	if !s.visit(st.appendKey(s.key[:0])) {
		return false
	}
	progress := false
	for t := 0; t < s.p.NumThreads(); t++ {
		if len(st.sb[t]) > 0 {
			progress = true
			next := s.next(st)
			drain(next, t)
			if s.explore(next) {
				e := st.sb[t][0]
				return s.record("T%d: drain %s=%d to memory", t, s.p.Mem().LocName(e.loc), e.val)
			}
			s.release(next)
		}
		if st.pc[t] < len(s.p.Instrs[t]) {
			ins := s.p.Instrs[t][st.pc[t]]
			if s.blocked(st, t, ins) {
				continue
			}
			progress = true
			next := s.next(st)
			s.execute(next, t, ins)
			next.pc[t]++
			if s.explore(next) {
				return s.record("T%d: execute instruction %d", t, st.pc[t])
			}
			s.release(next)
		}
	}
	return !progress && s.quiescent(st.reg, st.final)
}

// blocked implements the WR stall conditions:
//   - a load stalls while a same-address store sits in the local buffer
//     (no forwarding: it must read memory, and reading around the buffered
//     store would violate coherence);
//   - AMOs execute at memory: same-address entries must drain first, and a
//     release-annotated AMO waits for the whole buffer (prior stores must
//     be visible before it);
//   - a fence ordering W→R stalls until the buffer is empty (that is the
//     only ordering the in-order core and FIFO buffer do not already give).
func (s *Simulator) blocked(st *state, t int, ins *isa.Instr) bool {
	switch {
	case ins.Op == isa.OpLoad:
		if s.Forwarding {
			return false // reads the newest SB entry or memory
		}
		l := addr(st.regs[t], ins)
		for _, e := range st.sb[t] {
			if e.loc == l {
				return true
			}
		}
		return false
	case ins.Op.IsAMO():
		// AMOs execute at memory even under forwarding. A writing AMO
		// additionally flushes the store buffer first (like an x86 locked
		// operation): the machine preserves W→W order, so its write must
		// not become visible before earlier buffered stores.
		if ins.Op != isa.OpAMOLoad {
			return len(st.sb[t]) > 0
		}
		l := addr(st.regs[t], ins)
		for _, e := range st.sb[t] {
			if e.loc == l {
				return true
			}
		}
		if ins.Rl && len(st.sb[t]) > 0 {
			return true
		}
		return false
	case ins.Op == isa.OpFence:
		if ins.Pred.HasW() && ins.Succ.HasR() && ins.Cum != isa.CumLW && len(st.sb[t]) > 0 {
			return true
		}
	}
	return false
}

// loadValue reads a location as thread t sees it: the newest same-address
// store-buffer entry under forwarding, else memory.
func (s *Simulator) loadValue(st *state, t int, l mem.Loc) int64 {
	if s.Forwarding {
		for i := len(st.sb[t]) - 1; i >= 0; i-- {
			if st.sb[t][i].loc == l {
				return st.sb[t][i].val
			}
		}
	}
	return st.mem[l]
}

func (s *Simulator) execute(st *state, t int, ins *isa.Instr) {
	switch ins.Op {
	case isa.OpLoad:
		st.regs[t][ins.Dst] = s.loadValue(st, t, addr(st.regs[t], ins))
	case isa.OpStore:
		if s.WriteThrough {
			st.mem[addr(st.regs[t], ins)] = operand(st.regs[t], ins.Data)
			break
		}
		st.sb[t] = append(st.sb[t], sbEntry{loc: addr(st.regs[t], ins), val: operand(st.regs[t], ins.Data)})
	case isa.OpAMOLoad:
		// Atomic load: reads memory; the write-back of the same value is
		// silent (see isa.OpAMOLoad).
		st.regs[t][ins.Dst] = st.mem[addr(st.regs[t], ins)]
	case isa.OpAMOStore:
		// Atomic store: bypasses the store buffer (MCA anyway) and writes
		// memory directly.
		st.mem[addr(st.regs[t], ins)] = operand(st.regs[t], ins.Data)
	case isa.OpAMOSwap:
		l := addr(st.regs[t], ins)
		if ins.Dst != mem.NoDst {
			st.regs[t][ins.Dst] = st.mem[l]
		}
		st.mem[l] = operand(st.regs[t], ins.Data)
	case isa.OpAMOAdd:
		l := addr(st.regs[t], ins)
		old := st.mem[l]
		if ins.Dst != mem.NoDst {
			st.regs[t][ins.Dst] = old
		}
		st.mem[l] = old + operand(st.regs[t], ins.Data)
	case isa.OpFence:
		// Ordering effects are captured by blocked(); nothing to do.
	}
}
