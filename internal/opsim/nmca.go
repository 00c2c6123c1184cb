package opsim

import (
	"encoding/binary"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// NMCASimulator is an operational model of the nWR microarchitecture:
// per-core store visibility (non-multiple-copy-atomic stores) on top of an
// in-order core with a forwarding FIFO store buffer. It cross-validates
// the axiomatic nWR µhb model — the substrate on which the paper's
// cumulativity bugs (WRC, RWC, IRIW) live.
//
// Memory is modelled the CCICheck way: draining a store appends it to a
// global per-location coherence order; each core then *applies* drained
// writes at its own pace, subject to
//
//   - coherence: a core applies same-location writes in the global order;
//   - source FIFO: a core applies writes from one source thread in that
//     thread's drain order (the FIFO buffer of nWR maintains W→W, and the
//     non-cumulative fences' and releases' W→W ordering is per-core
//     pointwise — exactly the axiomatic model's pointwise-vis edges);
//   - store atomicity: an aq.rl ("SC") AMO write is a single pending
//     event that later *commits* — entering the coherence order and
//     every core's view at one instant, mirroring the axiomatic model's
//     single VisibleAll node. Crucially the instant is deferred, not
//     tied to execution: the thread runs on past the AMO and until the
//     commit fires no core, the writer included, observes the write.
//     The commit in turn waits for the thread's earlier writes to be
//     applied everywhere (pointwise W→W into a simultaneous event means
//     global visibility). The backend=both cross-check against the
//     axiomatic nWR model pinned this from both sides on the base+a
//     intuitive mapping: committing at execute time hid sb's relaxed
//     outcome, while dropping the single instant entirely let the
//     cumulativity litmus tests (WRC/RWC/IRIW with SC writers) through.
//
// A W→R fence (or an rl-annotated AMO load) additionally waits until the
// thread's own drained writes have been applied by every core — the
// operational reading of the axiomatic "flush" edges.
type NMCASimulator struct {
	search
	shape *nshape
	free  []*nstate // explored successors, recycled by next
}

// NewNMCA returns an operational nWR simulator.
func NewNMCA(p *isa.Program) *NMCASimulator {
	s := &NMCASimulator{shape: newShape(p)}
	s.search = search{p: p, root: func() bool { return s.explore(s.shape.newState()) }}
	return s
}

// drained is one coherence-ordered write.
type drained struct {
	loc    mem.Loc
	val    int64
	src    int // source thread
	srcSeq int // position in the source's drain order
	atomic bool
}

// pendingAtomic is an executed-but-uncommitted SC-AMO write: it sits
// outside the coherence order until its commit instant. add marks a
// fetch-add, whose write value reads memory at the commit itself so the
// read-modify-write stays indivisible. set marks a thread's slot as
// holding one.
type pendingAtomic struct {
	loc  mem.Loc
	data int64
	add  bool
	set  bool
}

// nstate is a full nMCA machine configuration. Its rows are windows of
// fixed capacity into three arrays of its own (ints, i64, sbuf), placed
// by the simulator's nshape, so copying a state copies arrays rather
// than rebuilding rows.
type nstate struct {
	pc       []int
	regs     [][]int64
	sb       [][]sbEntry
	order    [][]int // per location: indices into writes, coherence order
	writes   []drained
	applied  [][]int // applied[c][loc]: prefix of order[loc] applied at c
	drainSeq []int   // per thread: number of writes drained so far
	pending  []pendingAtomic

	shape *nshape
	ints  []int     // pc, drainSeq, the applied rows, the order windows
	i64   []int64   // the register rows
	sbuf  []sbEntry // the store-buffer windows
}

// nshape sizes the windows of one program's states. A thread buffers
// at most its own stores, and each writing instruction adds at most one
// write to the coherence order of the one location it writes, so no
// window ever grows.
type nshape struct {
	regs   []int // per thread: registers
	sb     []int // per thread: store-buffer window (its stores)
	locs   int   // locations
	writes int   // per location: coherence-order window (the program's writing instructions)
}

// newShape sizes the windows of p's states.
func newShape(p *isa.Program) *nshape {
	sh := &nshape{regs: regWidths(p), sb: make([]int, p.NumThreads()), locs: p.Mem().NumLocs}
	for t, th := range p.Instrs {
		for i := range th {
			if th[i].Op == isa.OpStore {
				sh.sb[t]++
			}
			if th[i].HasWritePart() {
				sh.writes++
			}
		}
	}
	return sh
}

// newState returns the reset configuration laid out in sh: pcs and
// registers at zero, no write drained, buffered or pending.
func (sh *nshape) newState() *nstate {
	n := len(sh.regs)
	sizes := []int{n, n} // pc, drainSeq, then the applied rows and the order windows
	for range n {
		sizes = append(sizes, sh.locs)
	}
	for range sh.locs {
		sizes = append(sizes, sh.writes)
	}
	st := &nstate{writes: make([]drained, 0, sh.writes), pending: make([]pendingAtomic, n), shape: sh}
	var rows [][]int
	st.ints, rows = windows[int](sizes)
	st.pc, st.drainSeq, st.applied, st.order = rows[0], rows[1], rows[2:2+n:2+n], rows[2+n:]
	st.i64, st.regs = windows[int64](sh.regs)
	st.sbuf, st.sb = windows[sbEntry](sh.sb)
	for l := range st.order {
		st.order[l] = st.order[l][:0]
	}
	for t := range st.sb {
		st.sb[t] = st.sb[t][:0]
	}
	return st
}

// windows returns a zeroed array of the summed sizes and its
// consecutive windows: window i has length and capacity sizes[i].
func windows[T any](sizes []int) ([]T, [][]T) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	arr, rows := make([]T, total), make([][]T, len(sizes))
	rest := arr
	for i, n := range sizes {
		rows[i], rest = rest[:n:n], rest[n:]
	}
	return arr, rows
}

// cloneInto copies s into c and returns c. Into a state of s's shape
// that is three array copies, the drained writes, the pending atomics
// and length-only re-slices of the variable rows, which write no
// pointer; any other c is laid out in s's shape first.
func (s *nstate) cloneInto(c *nstate) *nstate {
	if c.shape != s.shape {
		*c = *s.shape.newState()
	}
	copy(c.ints, s.ints)
	copy(c.i64, s.i64)
	copy(c.sbuf, s.sbuf)
	copy(c.pending, s.pending)
	c.writes = c.writes[:len(s.writes)]
	copy(c.writes, s.writes)
	for t := range c.sb {
		c.sb[t] = c.sb[t][:len(s.sb[t])]
	}
	for l := range c.order {
		c.order[l] = c.order[l][:len(s.order[l])]
	}
	return c
}

// appendKey appends s's visited-set key to buf: a length-prefixed varint
// encoding of pc, regs, order, applied, drainSeq, every drained write,
// the store buffers and the pending atomics, so two states share a key
// exactly when they are equal.
func (s *nstate) appendKey(buf []byte) []byte {
	buf = appendInts(buf, s.pc)
	buf = appendRows(buf, s.regs)
	buf = appendRows(buf, s.order)
	buf = appendRows(buf, s.applied)
	buf = appendInts(buf, s.drainSeq)
	buf = binary.AppendUvarint(buf, uint64(len(s.writes)))
	for _, w := range s.writes {
		buf = binary.AppendVarint(buf, int64(w.loc))
		buf = binary.AppendVarint(buf, w.val)
		buf = binary.AppendVarint(buf, int64(w.src))
		buf = binary.AppendVarint(buf, int64(w.srcSeq))
		buf = appendBool(buf, w.atomic)
	}
	buf = appendBuffers(buf, s.sb)
	buf = binary.AppendUvarint(buf, uint64(len(s.pending)))
	for _, p := range s.pending {
		buf = appendBool(buf, p.set)
		if p.set {
			buf = binary.AppendVarint(buf, int64(p.loc))
			buf = binary.AppendVarint(buf, p.data)
			buf = appendBool(buf, p.add)
		}
	}
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// reg returns thread t's register r.
func (s *nstate) reg(t, r int) int64 { return s.regs[t][r] }

// final returns the value of loc's last write in the coherence order (or
// the initial 0).
func (s *nstate) final(loc mem.Loc) int64 {
	n := len(s.order[loc])
	if n == 0 {
		return 0
	}
	return s.writes[s.order[loc][n-1]].val
}

// view returns the value of loc as core c currently sees it (latest
// applied write, or the initial 0).
func (s *nstate) view(c int, loc mem.Loc) int64 {
	n := s.applied[c][loc]
	if n == 0 {
		return 0
	}
	return s.writes[s.order[loc][n-1]].val
}

// caughtUp reports whether core c has applied every drained write to loc.
func (s *nstate) caughtUp(c int, loc mem.Loc) bool {
	return s.applied[c][loc] == len(s.order[loc])
}

// canApply reports whether core c may apply the next write to loc:
// coherence gives the candidate; source FIFO requires all earlier-drained
// writes from the same source applied at c first.
func (s *nstate) canApply(c int, loc mem.Loc) bool {
	n := s.applied[c][loc]
	if n >= len(s.order[loc]) {
		return false
	}
	w := s.writes[s.order[loc][n]]
	for l := range s.order {
		for i := s.applied[c][l]; i < len(s.order[l]); i++ {
			prev := s.writes[s.order[l][i]]
			if prev.src == w.src && prev.srcSeq < w.srcSeq {
				return false // an earlier same-source write is still unapplied here
			}
		}
	}
	return true
}

// ownWritesGloballyApplied reports whether every write thread t has
// drained so far is applied at every core (the W→R flush condition).
func (s *nstate) ownWritesGloballyApplied(t int) bool {
	for c := range s.applied {
		for l := range s.order {
			for i := s.applied[c][l]; i < len(s.order[l]); i++ {
				if s.writes[s.order[l][i]].src == t {
					return false
				}
			}
		}
	}
	return true
}

// canCommit reports whether thread t's pending SC-AMO write may take its
// single visibility instant now: every core caught up on the location
// (the commit appends at the coherence tail and applies everywhere at
// once, so skipping an unapplied predecessor would break per-core
// coherence) and the thread's earlier writes applied at every core
// (pointwise W→W into a simultaneous event). Apply actions are always
// eventually enabled, so a pending commit can never deadlock.
func (s *nstate) canCommit(t int) bool {
	p := s.pending[t]
	if !p.set {
		return false
	}
	for c := range s.applied {
		if !s.caughtUp(c, p.loc) {
			return false
		}
	}
	return s.ownWritesGloballyApplied(t)
}

// commitPending fires thread t's pending SC-AMO write: the value is
// computed against the now-globally-agreed view (fetch-adds read here,
// keeping the RMW indivisible), appended to the coherence order, and
// applied at every core in the same instant.
func (s *NMCASimulator) commitPending(st *nstate, t int) {
	p := st.pending[t]
	st.pending[t] = pendingAtomic{}
	val := p.data
	if p.add {
		val = st.view(t, p.loc) + p.data
	}
	s.appendWrite(st, t, p.loc, val, true)
	for c := range st.applied {
		st.applied[c][p.loc] = len(st.order[p.loc])
	}
}

// next returns a copy of st in a recycled state; release it once
// explored.
func (s *NMCASimulator) next(st *nstate) *nstate {
	var c *nstate
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
	} else {
		c = s.shape.newState()
	}
	return st.cloneInto(c)
}

func (s *NMCASimulator) release(st *nstate) { s.free = append(s.free, st) }

// drainHead moves thread t's store-buffer head into the coherence order,
// shifting the buffer within its window.
func (s *NMCASimulator) drainHead(st *nstate, t int) {
	q := st.sb[t]
	e := q[0]
	copy(q, q[1:])
	st.sb[t] = st.sb[t][:len(q)-1]
	s.appendWrite(st, t, e.loc, e.val, false)
}

// explore enumerates st's transitions: per-core applies, then per thread
// a commit, a drain and the next instruction. The machine quiesces with
// buffers empty and every write applied everywhere (eventual
// visibility). It reports whether it reached Trace's target (see
// search).
func (s *NMCASimulator) explore(st *nstate) bool {
	if !s.visit(st.appendKey(s.key[:0])) {
		return false
	}
	progress := false
	n := s.p.NumThreads()
	// Apply actions: any core advances any location's visibility.
	for c := 0; c < n; c++ {
		for l := range st.order {
			if st.canApply(c, mem.Loc(l)) {
				progress = true
				next := s.next(st)
				next.applied[c][l]++
				if s.explore(next) {
					w := st.writes[st.order[l][st.applied[c][l]]]
					return s.record("T%d: apply %s=%d (written by T%d)", c, s.p.Mem().LocName(mem.Loc(l)), w.val, w.src)
				}
				s.release(next)
			}
		}
	}
	for t := 0; t < n; t++ {
		// Commit: a pending SC-AMO write takes its global instant.
		if st.canCommit(t) {
			progress = true
			next := s.next(st)
			s.commitPending(next, t)
			if s.explore(next) {
				return s.record("T%d: commit atomic %s=%d to every core",
					t, s.p.Mem().LocName(st.pending[t].loc), next.writes[len(next.writes)-1].val)
			}
			s.release(next)
		}
		// Drain: move the SB head into the coherence order. The draining
		// core must be caught up on the location (it acquires the line)
		// and applies its own write immediately. A pending SC-AMO write
		// holds drains back: anything buffered behind it is later in
		// program order, and pointwise W→W says it may not become
		// visible anywhere before the atomic's instant.
		if len(st.sb[t]) > 0 && !st.pending[t].set && st.caughtUp(t, st.sb[t][0].loc) {
			progress = true
			next := s.next(st)
			s.drainHead(next, t)
			if s.explore(next) {
				e := st.sb[t][0]
				return s.record("T%d: drain %s=%d into the coherence order", t, s.p.Mem().LocName(e.loc), e.val)
			}
			s.release(next)
		}
		// Execute the next instruction.
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

// appendWrite adds a drained/executed write to the coherence order and
// applies it at the writing core. Non-atomic writes reach the other
// cores through their own apply actions; SC-AMO commits follow this
// call with a simultaneous application at every core (the atomic flag
// records which writes took such an instant).
func (s *NMCASimulator) appendWrite(st *nstate, t int, loc mem.Loc, val int64, atomic bool) {
	id := len(st.writes)
	st.writes = append(st.writes, drained{loc: loc, val: val, src: t, srcSeq: st.drainSeq[t], atomic: atomic})
	st.drainSeq[t]++
	st.order[loc] = append(st.order[loc], id)
	st.applied[t][loc] = len(st.order[loc])
}

// scAtomic reports whether the AMO is store atomic under the current spec
// (aq.rl; this simulator models riscv-curr nWR).
func scAtomic(ins *isa.Instr) bool { return ins.Aq && ins.Rl }

func (s *NMCASimulator) blocked(st *nstate, t int, ins *isa.Instr) bool {
	switch {
	case ins.Op == isa.OpLoad:
		// Forwarding store buffer, W→R relaxed — except that an
		// uncommitted same-location SC-AMO write lives at the memory
		// system, not in the buffer, so the load must wait for its
		// instant (it may not read an older write than the thread's own).
		if p := st.pending[t]; p.set && p.loc == addr(st.regs[t], ins) {
			return true
		}
		return false
	case ins.Op == isa.OpAMOLoad:
		// Reads at the memory system: no same-location entry may be
		// buffered or pending; rl additionally waits for the whole
		// buffer and for global visibility of own writes — a pending
		// atomic is an own write not yet visible anywhere.
		l := addr(st.regs[t], ins)
		if p := st.pending[t]; p.set && p.loc == l {
			return true
		}
		for _, e := range st.sb[t] {
			if e.loc == l {
				return true
			}
		}
		if ins.Rl && (len(st.sb[t]) > 0 || st.pending[t].set || !st.ownWritesGloballyApplied(t)) {
			return true
		}
		return false
	case ins.Op.IsAMO():
		// Writing AMOs flush the buffer (W→W + not-buffered) and wait
		// for any in-flight atomic (SC pairs order their visibility
		// instants; plain writes may not overtake one pointwise).
		if st.pending[t].set || len(st.sb[t]) > 0 {
			return true
		}
		l := addr(st.regs[t], ins)
		if scAtomic(ins) {
			if ins.Dst == mem.NoDst {
				// Pure SC write: executes into the pending slot and
				// commits later — nothing more to wait for here.
				return false
			}
			// SC read-modify-write with a destination: the read performs
			// at the same instant the write becomes visible, so the
			// commit conditions must already hold at execution.
			for c := range st.applied {
				if !st.caughtUp(c, l) {
					return true
				}
			}
			return !st.ownWritesGloballyApplied(t)
		}
		// Release (and relaxed) AMOs acquire the line and write through,
		// propagating per core under source FIFO — the pointwise-vis
		// reading of the eager release edges.
		return !st.caughtUp(t, l)
	case ins.Op == isa.OpFence:
		// W→R fences flush: own buffer empty and own writes applied
		// everywhere (a pending atomic included). Other classes are
		// covered by in-order execution and the source-FIFO application
		// rule.
		if ins.Pred.HasW() && ins.Succ.HasR() && ins.Cum != isa.CumLW {
			return len(st.sb[t]) > 0 || st.pending[t].set || !st.ownWritesGloballyApplied(t)
		}
	}
	return false
}

func (s *NMCASimulator) execute(st *nstate, t int, ins *isa.Instr) {
	switch ins.Op {
	case isa.OpLoad:
		l := addr(st.regs[t], ins)
		val := st.view(t, l)
		for i := len(st.sb[t]) - 1; i >= 0; i-- {
			if st.sb[t][i].loc == l {
				val = st.sb[t][i].val
				break
			}
		}
		st.regs[t][ins.Dst] = val
	case isa.OpStore:
		st.sb[t] = append(st.sb[t], sbEntry{loc: addr(st.regs[t], ins), val: operand(st.regs[t], ins.Data)})
	case isa.OpAMOLoad:
		st.regs[t][ins.Dst] = st.view(t, addr(st.regs[t], ins))
	case isa.OpAMOStore:
		l := addr(st.regs[t], ins)
		if scAtomic(ins) {
			st.pending[t] = pendingAtomic{loc: l, data: operand(st.regs[t], ins.Data), set: true}
		} else {
			s.appendWrite(st, t, l, operand(st.regs[t], ins.Data), false)
		}
	case isa.OpAMOSwap:
		l := addr(st.regs[t], ins)
		if scAtomic(ins) && ins.Dst == mem.NoDst {
			st.pending[t] = pendingAtomic{loc: l, data: operand(st.regs[t], ins.Data), set: true}
			break
		}
		if ins.Dst != mem.NoDst {
			st.regs[t][ins.Dst] = st.view(t, l)
		}
		s.appendWrite(st, t, l, operand(st.regs[t], ins.Data), scAtomic(ins))
		if scAtomic(ins) {
			// blocked() held this back until the commit conditions were
			// met, so the write's instant is now — apply it everywhere.
			for c := range st.applied {
				st.applied[c][l] = len(st.order[l])
			}
		}
	case isa.OpAMOAdd:
		l := addr(st.regs[t], ins)
		if scAtomic(ins) && ins.Dst == mem.NoDst {
			st.pending[t] = pendingAtomic{loc: l, data: operand(st.regs[t], ins.Data), add: true, set: true}
			break
		}
		old := st.view(t, l)
		if ins.Dst != mem.NoDst {
			st.regs[t][ins.Dst] = old
		}
		s.appendWrite(st, t, l, old+operand(st.regs[t], ins.Data), scAtomic(ins))
		if scAtomic(ins) {
			for c := range st.applied {
				st.applied[c][l] = len(st.order[l])
			}
		}
	case isa.OpFence:
		// Ordering handled in blocked().
	}
}
