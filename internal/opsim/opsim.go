// Package opsim provides an operational (interleaving-based) simulator for
// the WR microarchitecture — the strongest Table 7 model: in-order cores,
// a FIFO store buffer per core without forwarding, and multi-copy-atomic
// memory — and its SC, TSO and nWR relatives. It searches the
// interleavings of instruction execution and store-buffer drain events
// and collects every reachable final state. Outcomes skips interleavings
// that differ only in the order of independent steps, a partial-order
// reduction whose rules each machine argues next to its explore; Trace
// searches every interleaving (see search).
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

// addr returns the location ev accesses, to a thread whose registers
// are regs.
func addr(regs []int64, ev *mem.Event) mem.Loc { return mem.Loc(operand(regs, ev.Addr)) }

// buffered returns the value of the newest entry for l in store buffer
// q, and whether q holds one.
func buffered(q []sbEntry, l mem.Loc) (int64, bool) {
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].loc == l {
			return q[i].val, true
		}
	}
	return 0, false
}

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
// store-buffer entry, then execute the next instruction's memory event
// if not blocked. Outcomes first takes a thread's own step alone (see
// ownStep). It reports whether it reached Trace's target (see search).
func (s *Simulator) explore(st *state) bool {
	if !s.visit(st.appendKey(s.key[:0])) {
		return false
	}
	n := s.p.NumThreads()
	if !s.full {
		for t := 0; t < n; t++ {
			if ev := s.ownStep(st, t); ev != nil {
				return s.exploreExecute(st, t, ev)
			}
		}
	}
	progress := false
	for t := 0; t < n; t++ {
		if len(st.sb[t]) > 0 {
			progress = true
			if s.exploreDrain(st, t) {
				return true
			}
		}
		if th := s.p.Mem().Threads[t]; st.pc[t] < len(th) {
			ev := th[st.pc[t]]
			if s.blocked(st, t, ev) {
				continue
			}
			progress = true
			if s.exploreExecute(st, t, ev) {
				return true
			}
		}
	}
	return !progress && s.quiescent(st.reg, st.final)
}

// ownStep returns thread t's next event when executing it is
// independent of every other transition, or nil. That holds for a plain
// store on a buffering machine and for a fence blocked lets through:
//   - the store only appends to t's own buffer, which no other thread
//     reads, and it commutes with t's drain, which takes the head;
//   - the fence only advances t's pc, and once unblocked it stays
//     unblocked: a W→R fence waits for t's buffer to empty, and only t
//     adds to it.
//
// A write-through store writes memory, which every thread reads, so the
// SC machine takes only its fences alone.
func (s *Simulator) ownStep(st *state, t int) *mem.Event {
	th := s.p.Mem().Threads[t]
	if st.pc[t] >= len(th) {
		return nil
	}
	ev := th[st.pc[t]]
	if ev.Kind == mem.Write && !s.WriteThrough || ev.Kind == mem.Fence && !s.blocked(st, t, ev) {
		return ev
	}
	return nil
}

// exploreDrain explores st's successor in which thread t drains its
// oldest store-buffer entry.
func (s *Simulator) exploreDrain(st *state, t int) bool {
	next := s.next(st)
	drain(next, t)
	if s.explore(next) {
		e := st.sb[t][0]
		return s.record("T%d: drain %s=%d to memory", t, s.p.Mem().LocName(e.loc), e.val)
	}
	s.release(next)
	return false
}

// exploreExecute explores st's successor in which thread t executes ev,
// its next event.
func (s *Simulator) exploreExecute(st *state, t int, ev *mem.Event) bool {
	next := s.next(st)
	s.execute(next, t, ev)
	next.pc[t]++
	if s.explore(next) {
		return s.record("T%d: execute instruction %d", t, st.pc[t])
	}
	s.release(next)
	return false
}

// blocked implements the WR stall conditions on ev, reading the
// annotation bits from the instruction that emitted it:
//   - a load stalls while a same-address store sits in the local buffer
//     (no forwarding: it must read memory, and reading around the buffered
//     store would violate coherence);
//   - AMOs execute at memory: same-address entries must drain first, and a
//     release-annotated AMO waits for the whole buffer (prior stores must
//     be visible before it);
//   - a fence ordering W→R stalls until the buffer is empty (that is the
//     only ordering the in-order core and FIFO buffer do not already give).
func (s *Simulator) blocked(st *state, t int, ev *mem.Event) bool {
	ins := s.p.InstrOf(ev.GID)
	switch ev.Kind {
	case mem.Read:
		if s.Forwarding && !ins.Op.IsAMO() {
			return false // reads the newest SB entry or memory
		}
		// An AMO load reads memory even under forwarding; rl also waits
		// for the whole buffer.
		_, ok := buffered(st.sb[t], addr(st.regs[t], ev))
		return ok || ins.Op.IsAMO() && ins.Rl && len(st.sb[t]) > 0
	case mem.RMW:
		// A writing AMO flushes the store buffer first (like an x86
		// locked operation): the machine preserves W→W order, so its
		// write must not become visible before earlier buffered stores.
		return len(st.sb[t]) > 0
	case mem.Fence:
		return ins.Pred.HasW() && ins.Succ.HasR() && ins.Cum != isa.CumLW && len(st.sb[t]) > 0
	}
	return false
}

// loadValue reads a location as thread t sees it: the newest same-address
// store-buffer entry under forwarding, else memory.
func (s *Simulator) loadValue(st *state, t int, l mem.Loc) int64 {
	if s.Forwarding {
		if v, ok := buffered(st.sb[t], l); ok {
			return v
		}
	}
	return st.mem[l]
}

// execute performs ev on thread t. A read-modify-write (an AMO other
// than the atomic load, whose write-back is silent; see isa.OpAMOLoad)
// bypasses the store buffer: blocked held it until the buffer drained,
// so memory is what the thread sees.
func (s *Simulator) execute(st *state, t int, ev *mem.Event) {
	regs := st.regs[t]
	switch ev.Kind {
	case mem.Read:
		regs[ev.Dst] = s.loadValue(st, t, addr(regs, ev))
	case mem.Write:
		if s.WriteThrough {
			st.mem[addr(regs, ev)] = operand(regs, ev.Data)
			break
		}
		st.sb[t] = append(st.sb[t], sbEntry{loc: addr(regs, ev), val: operand(regs, ev.Data)})
	case mem.RMW:
		l := addr(regs, ev)
		old := st.mem[l]
		if ev.Dst != mem.NoDst {
			regs[ev.Dst] = old
		}
		st.mem[l] = ev.RMWOp.Apply(old, operand(regs, ev.Data))
	}
}
