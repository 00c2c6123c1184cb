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
// outside the coherence order until its commit instant. Its value is
// op applied to data and the memory it reads at the commit itself, so
// a fetch-add stays indivisible. set marks a thread's slot as holding
// one.
type pendingAtomic struct {
	loc  mem.Loc
	data int64
	op   mem.RMWKind
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
// window ever grows. It also indexes the program for the reduction's
// rules (see explore).
type nshape struct {
	regs   []int // per thread: registers
	sb     []int // per thread: store-buffer window (its stores)
	locs   int   // locations
	writes int   // per location: coherence-order window (the program's writing instructions)
	// lastRead[t][l] and lastWrite[t][l] are the index of thread t's
	// last event that reads (a load, AMO load or RMW) or writes (a store
	// or RMW) location l, or -1. An event with a register address counts
	// at every location.
	lastRead, lastWrite [][]int
}

// newShape sizes the windows of p's states.
func newShape(p *isa.Program) *nshape {
	n := p.NumThreads()
	sh := &nshape{regs: regWidths(p), sb: make([]int, n), locs: p.Mem().NumLocs,
		lastRead: make([][]int, n), lastWrite: make([][]int, n)}
	for t, th := range p.Mem().Threads {
		sh.lastRead[t], sh.lastWrite[t] = make([]int, sh.locs), make([]int, sh.locs)
		for l := range sh.locs {
			sh.lastRead[t][l], sh.lastWrite[t][l] = -1, -1
		}
		for i, e := range th {
			if e.Kind == mem.Write {
				sh.sb[t]++
			}
			if e.IsWrite() {
				sh.writes++
			}
			for l := range sh.locs {
				if e.Kind == mem.Fence || e.Addr.Kind == mem.OpConst && e.Addr.Const != int64(l) {
					continue
				}
				if e.IsRead() {
					sh.lastRead[t][l] = i
				}
				if e.IsWrite() {
					sh.lastWrite[t][l] = i
				}
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
			buf = append(buf, byte(p.op))
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
// computed against the now-globally-agreed view (the RMW reads here,
// keeping it indivisible), appended to the coherence order, and
// applied at every core in the same instant.
func (s *NMCASimulator) commitPending(st *nstate, t int) {
	p := st.pending[t]
	st.pending[t] = pendingAtomic{}
	s.appendWrite(st, t, p.loc, p.op.Apply(st.view(t, p.loc), p.data), true)
	s.applyEverywhere(st, p.loc)
}

// applyEverywhere applies every write to loc at every core: the single
// visibility instant of a store-atomic write that just entered the
// coherence order.
func (s *NMCASimulator) applyEverywhere(st *nstate, loc mem.Loc) {
	for c := range st.applied {
		st.applied[c][loc] = len(st.order[loc])
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
// visibility). Outcomes first takes one independent transition alone:
// a thread's own step (ownStep), then a drain no other thread can see
// (soleWriterDrain), then an apply its core will not read
// (unreadApply), each by ascending thread or core and location. It
// reports whether it reached Trace's target (see search).
func (s *NMCASimulator) explore(st *nstate) bool {
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
		for t := 0; t < n; t++ {
			if s.soleWriterDrain(st, t) {
				return s.exploreDrain(st, t)
			}
		}
		for c := 0; c < n; c++ {
			for l := range st.order {
				if s.unreadApply(st, c, mem.Loc(l)) {
					return s.exploreApply(st, c, mem.Loc(l))
				}
			}
		}
	}
	progress := false
	// Apply actions: any core advances any location's visibility.
	for c := 0; c < n; c++ {
		for l := range st.order {
			if st.canApply(c, mem.Loc(l)) {
				progress = true
				if s.exploreApply(st, c, mem.Loc(l)) {
					return true
				}
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
		// Drain: move the SB head into the coherence order.
		if st.canDrain(t) {
			progress = true
			if s.exploreDrain(st, t) {
				return true
			}
		}
		// Execute the next instruction's memory event.
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
// store and for a fence blocked lets through:
//   - the store only appends to t's own buffer, which only t's drain
//     and t's own events read, and it commutes with t's drain, which
//     takes the head;
//   - the fence only advances t's pc, and once unblocked it stays
//     unblocked. A W→R fence waits for t's buffer, t's pending atomic
//     and t's own writes: only t's next event fills the buffer or the
//     pending slot, and with both empty only t's drain or commit would
//     add a write of t's to the coherence order, while applies only
//     ever complete t's writes.
func (s *NMCASimulator) ownStep(st *nstate, t int) *mem.Event {
	th := s.p.Mem().Threads[t]
	if st.pc[t] >= len(th) {
		return nil
	}
	ev := th[st.pc[t]]
	if ev.Kind == mem.Write || ev.Kind == mem.Fence && !s.blocked(st, t, ev) {
		return ev
	}
	return nil
}

// soleWriterDrain reports whether thread t may drain its buffer head,
// at location l, and no other thread still writes l: none has a write
// or RMW to l at or after its pc, an l entry in its buffer or a pending
// atomic at l. The drain is then independent of every other transition:
//   - nothing disables it. Only another writer's write to l could leave
//     t behind on l, and t's own RMWs and atomics wait for its buffer.
//   - the coherence order of l is fixed, since t's write is the last
//     one l will get before t's own later ones. Other cores see it only
//     through their own applies of it, and it changes neither their
//     views nor, being t's newest write, their source-FIFO waits.
//   - t's loads of l read the same value before and after it: the
//     newest l entry in t's buffer before, which after is either still
//     buffered or this write, now t's view of l. What else reads t's
//     buffer or t's own writes (t's AMO loads, writing AMOs, W→R fences
//     and commit) waits for the buffer to empty.
func (s *NMCASimulator) soleWriterDrain(st *nstate, t int) bool {
	if !st.canDrain(t) {
		return false
	}
	l := st.sb[t][0].loc
	for u := range st.sb {
		if u == t {
			continue
		}
		if s.shape.lastWrite[u][l] >= st.pc[u] || st.pending[u].set && st.pending[u].loc == l {
			return false
		}
		if _, ok := buffered(st.sb[u], l); ok {
			return false
		}
	}
	return true
}

// unreadApply reports whether core c may apply its next write to l and
// no event of thread c at or after its pc reads l. The apply is then
// independent of every other transition: it only advances c's view of
// l, and every transition that reads that view has to wait for it.
//   - c's loads and RMWs at l: there are none left;
//   - c's drain of an l entry, and every commit and SC RMW at l: they
//     wait for c to catch up on l;
//   - the W→R fence, rl AMO load, SC RMW and commit of the write's
//     source: they wait for its writes to apply at every core;
//   - applies at c of the source's later writes: source FIFO holds
//     them back.
//
// Everything else that applies at c, or appends to l's coherence order,
// commutes with it, and an apply disables nothing.
func (s *NMCASimulator) unreadApply(st *nstate, c int, l mem.Loc) bool {
	return s.shape.lastRead[c][l] < st.pc[c] && st.canApply(c, l)
}

// exploreApply explores st's successor in which core c applies its next
// write to l.
func (s *NMCASimulator) exploreApply(st *nstate, c int, l mem.Loc) bool {
	next := s.next(st)
	next.applied[c][l]++
	if s.explore(next) {
		w := st.writes[st.order[l][st.applied[c][l]]]
		return s.record("T%d: apply %s=%d (written by T%d)", c, s.p.Mem().LocName(l), w.val, w.src)
	}
	s.release(next)
	return false
}

// canDrain reports whether thread t may move its store-buffer head into
// the coherence order. The draining core must be caught up on the
// location (it acquires the line) and applies its own write
// immediately. A pending SC-AMO write holds drains back: anything
// buffered behind it is later in program order, and pointwise W→W says
// it may not become visible anywhere before the atomic's instant.
func (s *nstate) canDrain(t int) bool {
	return len(s.sb[t]) > 0 && !s.pending[t].set && s.caughtUp(t, s.sb[t][0].loc)
}

// exploreDrain explores st's successor in which thread t drains its
// store-buffer head.
func (s *NMCASimulator) exploreDrain(st *nstate, t int) bool {
	next := s.next(st)
	s.drainHead(next, t)
	if s.explore(next) {
		e := st.sb[t][0]
		return s.record("T%d: drain %s=%d into the coherence order", t, s.p.Mem().LocName(e.loc), e.val)
	}
	s.release(next)
	return false
}

// exploreExecute explores st's successor in which thread t executes ev,
// its next event.
func (s *NMCASimulator) exploreExecute(st *nstate, t int, ev *mem.Event) bool {
	next := s.next(st)
	s.execute(next, t, ev)
	next.pc[t]++
	if s.explore(next) {
		return s.record("T%d: execute instruction %d", t, st.pc[t])
	}
	s.release(next)
	return false
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

// blocked implements the nWR stall conditions on ev, reading the
// annotation bits from the instruction that emitted it.
func (s *NMCASimulator) blocked(st *nstate, t int, ev *mem.Event) bool {
	ins := s.p.InstrOf(ev.GID)
	switch ev.Kind {
	case mem.Read:
		// A plain load reads through the forwarding store buffer, W→R
		// relaxed — except that an uncommitted same-location SC-AMO
		// write lives at the memory system, not in the buffer, so the
		// load must wait for its instant (it may not read an older
		// write than the thread's own).
		l := addr(st.regs[t], ev)
		if p := st.pending[t]; p.set && p.loc == l {
			return true
		}
		if !ins.Op.IsAMO() {
			return false
		}
		// An AMO load reads at the memory system: no same-location
		// entry may be buffered either; rl additionally waits for the
		// whole buffer and for global visibility of own writes — a
		// pending atomic is an own write not yet visible anywhere.
		if _, ok := buffered(st.sb[t], l); ok {
			return true
		}
		return ins.Rl && (len(st.sb[t]) > 0 || st.pending[t].set || !st.ownWritesGloballyApplied(t))
	case mem.RMW:
		// Writing AMOs flush the buffer (W→W + not-buffered) and wait
		// for any in-flight atomic (SC pairs order their visibility
		// instants; plain writes may not overtake one pointwise).
		if st.pending[t].set || len(st.sb[t]) > 0 {
			return true
		}
		l := addr(st.regs[t], ev)
		if scAtomic(ins) {
			if ev.Dst == mem.NoDst {
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
	case mem.Fence:
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

// execute performs ev on thread t. A load reads the newest same-address
// buffered store, else its core's view (blocked kept an AMO load's
// location out of the buffer). A read-modify-write writes through to the
// coherence order; a store-atomic one without a destination instead
// parks in the pending slot until its commit instant.
func (s *NMCASimulator) execute(st *nstate, t int, ev *mem.Event) {
	regs := st.regs[t]
	switch ev.Kind {
	case mem.Read:
		l := addr(regs, ev)
		val, ok := buffered(st.sb[t], l)
		if !ok {
			val = st.view(t, l)
		}
		regs[ev.Dst] = val
	case mem.Write:
		st.sb[t] = append(st.sb[t], sbEntry{loc: addr(regs, ev), val: operand(regs, ev.Data)})
	case mem.RMW:
		l, data := addr(regs, ev), operand(regs, ev.Data)
		sc := scAtomic(s.p.InstrOf(ev.GID))
		if sc && ev.Dst == mem.NoDst {
			st.pending[t] = pendingAtomic{loc: l, data: data, op: ev.RMWOp, set: true}
			break
		}
		old := st.view(t, l)
		if ev.Dst != mem.NoDst {
			regs[ev.Dst] = old
		}
		s.appendWrite(st, t, l, ev.RMWOp.Apply(old, data), sc)
		if sc {
			// blocked() held this back until the commit conditions were
			// met, so the write's instant is now.
			s.applyEverywhere(st, l)
		}
	}
}
