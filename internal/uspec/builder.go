package uspec

import (
	"tricheck/internal/isa"
	"tricheck/internal/mem"
	"tricheck/internal/uhb"
)

// Node slots per instruction. Every instruction reserves the full layout;
// unused slots remain isolated nodes and cannot affect acyclicity.
const (
	slotFetch = iota
	slotExec
	slotPerform // loads and AMO read parts perform here
	slotSBEnter // stores and AMO write parts enter the store buffer
	slotGetM    // A9like: write-permission request (cache protocol)
	slotVis0    // first visibility slot; nMCA uses one per core
)

// builder runs the axiom passes that construct the µhb graph of an
// execution candidate, or one tier of it.
//
// The passes below are written once and serve every use: each
// edge-producing statement is annotated static (addS) or dynamic (addD)
// according to whether it consults the execution candidate (rf/mo/
// resolved locations) or only the compiled program and model
// configuration. A run has up to two sinks. Prepare's run has a skeleton
// and no execution, and emits the static edges (once per program ×
// model); ExecutionObservable's run has a port closure and no skeleton,
// and emits the dynamic edges (once per execution); BuildGraph's run has
// a skeleton and an execution, and emits every edge, in pass order, into
// that one skeleton for diagnostics.
//
// Prepare's static run also records the program's dynamic sites: the
// same-thread pairs whose same-address refinements can fire (sameAddr),
// the cumulative fences and the lazy releases. ExecutionObservable's
// dynamic-only run visits only those sites, through the same pair, fence
// and release bodies, and not the rest of the program's static
// structure. The sites are recorded in the order a full walk reaches
// them (thread, then pair; fences and AMOs in program order) and visited
// in that order, because the closure's edge order decides which
// witnessing cycle a cyclic candidate's overlay DFS names, and so the
// coverage that cycle is charged to.
//
// Every static edge joins two nodes of the thread the static run is
// walking, which is what lets a sweep store each thread's static tier
// and assemble a program from its threads' tiers (tiers.go): the run
// charges each static axiom to that thread, and records sites thread by
// thread.
type builder struct {
	m *Model
	p *isa.Program
	x *mem.Execution // nil on static runs

	skel *uhb.Skeleton // static sink (and dynamic, when cl is nil)
	cl   *uhb.Closure  // dynamic sink
	cov  *Coverage     // optional axiom attribution (verdict runs only)

	ev     []*mem.Event
	C      int    // cores (threads)
	K      int    // node slots per instruction
	atomic []bool // by event: atomicWrite

	// The layout tables bind records for the dynamic passes: reads lists
	// the read parts in GID order; sbe and fwd hold, by event, the SBEnter
	// node and whether the event is a store that can forward to a
	// same-thread plain load under the model; vis holds, at w*C+c, the
	// node at which write w becomes visible to core c (visTo); acqAMOs
	// lists the acquire AMOs in GID order.
	reads   []readPart
	sbe     []int
	fwd     []bool
	vis     []int
	acqAMOs []int

	// fired holds, by thread, the axioms whose static edges the run
	// emitted, before dedup; th is the thread the static run is walking,
	// which every addS edge lies in (see tiers.go).
	fired []uint64
	th    int

	// The dynamic sites, recorded by the static run in walk order: pairs
	// holds same-thread (earlier, later) event pairs that can alias,
	// cumFences and lazyRels event ids.
	pairs               [][2]int
	cumFences, lazyRels []int

	// Reusable scratch for the dynamic passes, so a Prepared evaluation
	// streams every execution of a sweep through one buffer set.
	predR, predW, succR, succW []int
	cumMark                    []bool
	cumFront                   []int
	cumBuf                     []int
}

// readPart is a read part of the program: its event, the event's thread
// and Perform node, and whether it is a plain load (not an AMO).
type readPart struct {
	gid, thread, perform int
	plain                bool
}

// release drops b's model and program, keeping its buffers for a pooled
// Prepared to reuse: bind refills the layout, the tables and the site
// lists, and acumAppend leaves cumMark all false.
func (b *builder) release() {
	b.m, b.p, b.ev = nil, nil, nil
}

// bind sets b up for program p under model m: the node layout, the
// atomicWrite table and the layout tables, shared by all tiers of the
// pair, and empty site lists for the static run to record into.
func (b *builder) bind(m *Model, p *isa.Program) {
	b.m, b.p, b.ev = m, p, p.Mem().Events()
	b.C = max(p.NumThreads(), 1)
	maxV := 1
	if m.NMCA {
		maxV = b.C
	}
	b.K = slotVis0 + maxV + 1 // + Complete
	b.atomic, b.reads, b.acqAMOs = b.atomic[:0], b.reads[:0], b.acqAMOs[:0]
	b.sbe, b.fwd, b.vis = b.sbe[:0], b.fwd[:0], b.vis[:0]
	for _, e := range b.ev {
		g, ins := e.GID, p.InstrOf(e.GID)
		atomic := !m.NMCA || b.scAMO(ins)
		b.atomic = append(b.atomic, atomic)
		if e.IsRead() {
			b.reads = append(b.reads, readPart{g, e.Thread, b.perform(g), !ins.Op.IsAMO()})
			if ins.Op.IsAMO() && ins.Aq {
				b.acqAMOs = append(b.acqAMOs, g)
			}
		}
		b.sbe = append(b.sbe, b.sbEnter(g))
		b.fwd = append(b.fwd, m.Forwarding && ins.Op == isa.OpStore) // AMOs execute at memory
		for c := 0; c < b.C; c++ {
			if atomic {
				b.vis = append(b.vis, b.node(g, slotVis0))
			} else {
				b.vis = append(b.vis, b.node(g, slotVis0+c))
			}
		}
	}
	b.fired = append(b.fired[:0], make([]uint64, b.C)...)
	b.pairs, b.cumFences, b.lazyRels = b.pairs[:0], b.cumFences[:0], b.lazyRels[:0]
}

// BuildGraph constructs the fully materialized µhb graph of execution x of
// program p under the model's axioms — the diagnostics path. The graph is
// acyclic iff the execution is observable. The verdict path does not use
// it; see Model.Prepare.
func (m *Model) BuildGraph(p *isa.Program, x *mem.Execution) *Graph {
	b := &builder{x: x}
	b.bind(m, p)
	b.skel = uhb.NewSkeleton(len(b.ev) * b.K)
	b.run()
	b.skel.Freeze()
	b.x = nil // the enumerator reuses x; the graph keeps only the layout
	return &Graph{s: b.skel, b: b}
}

// run executes the axiom passes in pass order; each pass emits only the
// edges its run has a sink for.
func (b *builder) run() {
	b.pipeline()
	b.ppo()
	b.deps()
	b.coherence()
	b.values()
	b.fences()
	b.amoBits()
}

// dyn reports whether this run may consult the execution candidate.
func (b *builder) dyn() bool { return b.x != nil }

// addS emits an execution-independent edge into the skeleton, when the
// run has one. Coverage attribution happens here, at emission — before
// Skeleton dedup — so every contributing axiom's Fired bit survives even
// when its edge collapses onto an earlier axiom's (first-reason-wins
// keeps only one stored reason; the Edges bits are recomputed from the
// frozen CSR in Prepare). The bit goes to the walked thread's row of
// fired, which Prepare ORs into Coverage.Fired.
//
// For any program mem.Validate accepts, a static edge joins an earlier
// event to a later one, or an earlier slot of one event to a later slot,
// so it runs to a higher node (gid*K + slot). That is the precondition
// under which uhb.Closure.Attach takes a skeleton; only a control
// dependency on a later load, which Validate rejects, breaks it, and the
// overlay then decides every candidate.
func (b *builder) addS(from, to int, r Reason) {
	if b.skel == nil {
		return
	}
	b.fired[b.th] |= axiomBit(r)
	b.skel.AddEdge(from, to, uint32(r))
}

// addD emits an execution-dependent edge into the port closure, or into
// the skeleton on a run without one. The closure never dedups, so a fired
// dynamic axiom always owns a stored edge record too.
func (b *builder) addD(from, to int, r Reason) {
	if b.cl == nil {
		b.skel.AddEdge(from, to, uint32(r))
		return
	}
	if b.cov != nil {
		bit := axiomBit(r)
		b.cov.Fired |= bit
		b.cov.Edges |= bit
	}
	b.cl.AddEdge(from, to, uint32(r))
}

// add dispatches on the static flag — for shared loops whose elements mix
// tiers (a fence's own-thread vs cumulative predecessor writes).
func (b *builder) add(from, to int, r Reason, static bool) {
	if static {
		b.addS(from, to, r)
	} else {
		b.addD(from, to, r)
	}
}

// Node accessors.
func (b *builder) node(gid, slot int) int { return gid*b.K + slot }
func (b *builder) fetch(gid int) int      { return b.node(gid, slotFetch) }
func (b *builder) exec(gid int) int       { return b.node(gid, slotExec) }
func (b *builder) perform(gid int) int    { return b.node(gid, slotPerform) }
func (b *builder) sbEnter(gid int) int    { return b.node(gid, slotSBEnter) }
func (b *builder) getM(gid int) int       { return b.node(gid, slotGetM) }
func (b *builder) complete(gid int) int   { return b.node(gid, b.K-1) }

// ports appends to dst the nodes a dynamic edge can touch: the Perform
// node of each read part, and the SBEnter node and every visibility node
// of each write part. Every addD endpoint in the passes below is one of
// them.
func (b *builder) ports(dst []int32) []int32 {
	for _, e := range b.ev {
		g := e.GID
		if e.IsRead() {
			dst = append(dst, int32(b.perform(g)))
		}
		if e.IsWrite() {
			dst = append(dst, int32(b.sbEnter(g)))
			for i := 0; i < b.numVis(g); i++ {
				dst = append(dst, int32(b.visN(g, i)))
			}
		}
	}
	return dst
}

// atomicWrite reports whether write w's visibility is a single multi-copy-
// atomic event: always for MCA/rMCA substrates, and for AMOs carrying the
// store-atomicity annotation (aq+rl under Curr, the .sc bit under Ours,
// i.e. scAMO). bind fills the table once per layout.
func (b *builder) atomicWrite(w int) bool { return b.atomic[w] }

// visTo returns the node at which write w becomes visible to core c: its
// one visibility node when atomicWrite, else core c's (bind's vis table).
func (b *builder) visTo(w, c int) int { return b.vis[w*b.C+c] }

// numVis returns the number of distinct visibility nodes of write w;
// visN(w, i) for i < numVis(w) enumerates them.
func (b *builder) numVis(w int) int {
	if b.atomicWrite(w) {
		return 1
	}
	return b.C
}

// visN returns write w's i-th visibility node.
func (b *builder) visN(w, i int) int {
	if b.atomicWrite(w) {
		return b.node(w, slotVis0)
	}
	return b.node(w, slotVis0+i)
}

// scAMO reports whether the instruction is a "sequentially consistent" AMO:
// one that participates in the ISA's global SC total order (aq+rl under
// Curr; the .sc bit under Ours).
func (b *builder) scAMO(ins *isa.Instr) bool {
	if !ins.Op.IsAMO() {
		return false
	}
	if b.m.Variant == Curr {
		return ins.Aq && ins.Rl
	}
	return ins.SCBit
}

// pipeline adds the in-order front-end chains and per-instruction paths.
// Entirely static: it consults only the program and model configuration.
func (b *builder) pipeline() {
	if b.skel == nil {
		return
	}
	for t, th := range b.p.Mem().Threads {
		b.th = t
		for i, e := range th {
			if i+1 < len(th) {
				nxt := th[i+1]
				b.addS(b.fetch(e.GID), b.fetch(nxt.GID), rPoFetch)
				b.addS(b.exec(e.GID), b.exec(nxt.GID), rInOrderExecute)
				b.addS(b.complete(e.GID), b.complete(nxt.GID), rInOrderCommit)
			}
			g := e.GID
			b.addS(b.fetch(g), b.exec(g), rPath)
			if e.IsRead() {
				b.addS(b.exec(g), b.perform(g), rPath)
				b.addS(b.perform(g), b.complete(g), rPath)
			}
			if e.IsWrite() {
				if e.IsRead() { // AMO: read before write
					b.addS(b.perform(g), b.sbEnter(g), rAmoReadBeforeWrite)
				} else {
					b.addS(b.exec(g), b.sbEnter(g), rPath)
				}
				b.addS(b.sbEnter(g), b.complete(g), rPath)
				if b.m.CacheProtocol {
					// A9like: the store requests write permission (GetM)
					// and then invalidations/forwards reach each core
					// independently (non-stalling directory).
					b.addS(b.sbEnter(g), b.getM(g), rCacheGetM)
					for i := 0; i < b.numVis(g); i++ {
						b.addS(b.getM(g), b.visN(g, i), rCacheInvOrForward)
					}
				} else {
					for i := 0; i < b.numVis(g); i++ {
						b.addS(b.sbEnter(g), b.visN(g, i), rSbDrain)
					}
				}
			}
			if e.Kind == mem.Fence {
				b.addS(b.exec(g), b.complete(g), rPath)
			}
		}
	}
}

// sameAddr reports whether two events resolved to the same location
// (dynamic: resolved locations can depend on register-carried addresses).
// It is ppo's only execution-dependent test. A static run answers false,
// and records the pair, once, as a dynamic site when the two can alias: a
// register-carried address can alias anything, two constant addresses
// only when they are equal.
func (b *builder) sameAddr(a, c int) bool {
	if b.dyn() {
		return b.x.SameLoc(a, c)
	}
	ea, ec := b.ev[a], b.ev[c]
	alias := ea.Addr.Kind == mem.OpReg || ec.Addr.Kind == mem.OpReg || ea.Addr.Const == ec.Addr.Const
	if n := len(b.pairs); alias && (n == 0 || b.pairs[n-1] != [2]int{a, c}) {
		b.pairs = append(b.pairs, [2]int{a, c})
	}
	return false
}

// ppo adds preserved-program-order edges according to the relaxation
// profile. Mixed tier: unconditional orders are static, same-address
// refinements consult the execution's resolved locations. A dynamic-only
// run visits just the recorded pairs.
func (b *builder) ppo() {
	if b.skel == nil {
		for _, s := range b.pairs {
			b.ppoPair(b.ev[s[0]], b.ev[s[1]])
		}
		return
	}
	for t, th := range b.p.Mem().Threads {
		b.th = t
		for i, a := range th {
			for _, c := range th[i+1:] {
				b.ppoPair(a, c)
			}
		}
	}
}

// ppoPair adds the preserved-program-order edges of same-thread events a
// and c, a first in program order.
func (b *builder) ppoPair(a, c *mem.Event) {
	ag, cg := a.GID, c.GID
	// R → R
	if a.IsRead() && c.IsRead() {
		if !b.m.RelaxRR {
			b.addS(b.perform(ag), b.perform(cg), rPpoRR)
		} else if b.m.OrderSameAddrRR && b.sameAddr(ag, cg) {
			b.addD(b.perform(ag), b.perform(cg), rPpoRRSameAddr)
		}
	}
	// R → W: maintained unless RelaxRR, always for same address.
	if a.IsRead() && c.IsWrite() {
		if !b.m.RelaxRR {
			for v := 0; v < b.numVis(cg); v++ {
				b.addS(b.perform(ag), b.visN(cg, v), rPpoRW)
			}
		} else if b.sameAddr(ag, cg) {
			for v := 0; v < b.numVis(cg); v++ {
				b.addD(b.perform(ag), b.visN(cg, v), rPpoRW)
			}
		}
	}
	// W → R: relaxed on every Table 7 model (store buffer); enforced only
	// on the SC ablation. Same-address W→R with no forwarding: the load
	// stalls until the store drains.
	switch {
	case !a.IsWrite() || !c.IsRead():
	case !b.m.RelaxWR:
		for v := 0; v < b.numVis(ag); v++ {
			b.addS(b.visN(ag, v), b.perform(cg), rPpoWR)
		}
	case b.p.InstrOf(ag).Op.IsAMO() && !b.m.NMCA:
		// AMO writes execute at the memory system (they need the old
		// value), so they are never buffered: on MCA/rMCA substrates —
		// where at-memory means visible — later loads perform after the
		// AMO's write. On nMCA substrates per-core visibility may still
		// lag (non-stalling directory), so no such edge exists there.
		for v := 0; v < b.numVis(ag); v++ {
			b.addS(b.visN(ag, v), b.perform(cg), rAmoNotBuffered)
		}
	case b.sameAddr(ag, cg) && b.x.RF[cg] != ag:
		// The load reads something other than the newest same-address
		// SB entry, so that entry must have drained first.
		for v := 0; v < b.numVis(ag); v++ {
			b.addD(b.visN(ag, v), b.perform(cg), rSbSameAddrDrain)
		}
		// Reading the own store without forwarding means waiting for it
		// to reach memory (rf adds the visibility edge; nothing extra
		// needed there).
	}
	// W → W: FIFO drain unless RelaxWW; same address always.
	if a.IsWrite() && c.IsWrite() {
		if !b.m.RelaxWW {
			b.pointwiseVis(ag, cg, rPpoWW, true)
		} else if b.sameAddr(ag, cg) {
			b.pointwiseVis(ag, cg, rPpoWW, false)
		}
		if b.sameAddr(ag, cg) {
			b.addD(b.sbEnter(ag), b.sbEnter(cg), rSbFifoSameAddr)
		}
	}
}

// pointwiseVis orders write a's visibility before write c's, per core.
//
// When both writes are atomicWrite, the C per-core edges are one edge,
// emitted C times in a row; it is emitted once instead, and no result
// moves. The closure's rows and the coverage bits are sets, and Freeze
// keeps the first reason of each (from, to), which the first copy
// already was. In the overlay the copies would sit next to each other in
// their source node's list, which the DFS walks newest first, and the
// DFS never follows an edge into a node it has already entered: the
// first copy it meets either closes a cycle on a gray target, which ends
// the search, or finds the target done, or enters it, which is done when
// the DFS comes back. So every later copy finds the target done, or is
// never reached, and no witnessing cycle moves.
func (b *builder) pointwiseVis(ag, cg int, r Reason, static bool) {
	if b.atomicWrite(ag) && b.atomicWrite(cg) {
		b.add(b.visTo(ag, 0), b.visTo(cg, 0), r, static)
		return
	}
	for c := 0; c < b.C; c++ {
		b.add(b.visTo(ag, c), b.visTo(cg, c), r, static)
	}
}

// deps adds syntactic address/data/control dependency edges: the dependee
// cannot begin executing until the source load has performed. Static: the
// dependency structure is syntactic, not value-dependent.
func (b *builder) deps() {
	if !b.m.RespectDeps || b.skel == nil {
		return
	}
	for t, th := range b.p.Mem().Threads {
		b.th = t
		for _, e := range th {
			add := func(srcIdx int, r Reason) {
				src := th[srcIdx]
				b.addS(b.perform(src.GID), b.exec(e.GID), r)
			}
			if e.Kind != mem.Fence {
				if e.Addr.Kind == mem.OpReg {
					if s := b.sourceLoad(th, e.Index, e.Addr.Reg); s >= 0 {
						add(s, rDepAddr)
					}
				}
				if e.IsWrite() && e.Data.Kind == mem.OpReg {
					if s := b.sourceLoad(th, e.Index, e.Data.Reg); s >= 0 {
						add(s, rDepData)
					}
				}
			}
			for _, d := range e.CtrlDepOn {
				add(d, rDepCtrl)
			}
		}
	}
}

// sourceLoad finds the latest load before idx writing register reg.
func (b *builder) sourceLoad(th []*mem.Event, idx, reg int) int {
	for i := idx - 1; i >= 0; i-- {
		if th[i].IsRead() && th[i].Dst == reg {
			return i
		}
	}
	return -1
}

// coherence adds per-core pointwise visibility edges along mo (the ws
// relation): all cores agree on the order of same-location stores.
// Dynamic: mo is the execution's coherence choice.
func (b *builder) coherence() {
	if !b.dyn() {
		return
	}
	for _, ws := range b.x.MO {
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				b.pointwiseVis(ws[i], ws[j], rWs, false)
			}
		}
	}
}

// values adds reads-from and from-reads edges. Dynamic: rf/fr are the
// execution's value choices. It reads bind's layout tables: a read's fr
// successors are the writes after its source in mo, MO[loc][srcIdx:]
// (mem.Execution.MOIndex is 1-based, init 0), other than the read itself
// when it is an RMW.
func (b *builder) values() {
	if !b.dyn() {
		return
	}
	x := b.x
	for _, rd := range b.reads {
		src := x.RF[rd.gid]
		srcIdx := 0
		if src != mem.InitWrite {
			srcIdx = x.MOIndex[src]
			if b.fwd[src] && rd.plain && b.ev[src].Thread == rd.thread {
				// Plain load forwarding from the local store buffer.
				b.addD(b.sbe[src], rd.perform, rRfForward)
			} else {
				// Reads observe the write once visible to their core
				// (AMO reads always go to the memory system).
				b.addD(b.visTo(src, rd.thread), rd.perform, rRf)
			}
		}
		for _, w := range x.MO[x.LocOf[rd.gid]][srcIdx:] {
			if w != rd.gid {
				b.addD(rd.perform, b.visTo(w, rd.thread), rFr)
			}
		}
	}
}

// accessParts reports whether the event participates in a fence class as a
// read and/or as a write.
func accessParts(e *mem.Event) (rd, wr bool) {
	return e.IsRead(), e.IsWrite()
}

// fences adds fence-ordering edges for every fence instruction, including
// cumulativity for the lwf/hwf proposals (and Power lwsync/sync). Mixed
// tier: same-thread predecessor/successor sets are static, the
// A-cumulative closure consults rf, so only cumulative fences are dynamic
// sites.
func (b *builder) fences() {
	if b.skel == nil {
		for _, g := range b.cumFences {
			f := b.ev[g]
			b.fenceEdges(b.p.Mem().Threads[f.Thread], f, b.p.InstrOf(g))
		}
		return
	}
	for t, th := range b.p.Mem().Threads {
		b.th = t
		for _, f := range th {
			if f.Kind != mem.Fence {
				continue
			}
			ins := b.p.InstrOf(f.GID)
			if ins.Op != isa.OpFence {
				continue
			}
			if ins.Cum != isa.CumNone && !b.dyn() { // the static run records the site
				b.cumFences = append(b.cumFences, f.GID)
			}
			b.fenceEdges(th, f, ins)
		}
	}
}

func (b *builder) fenceEdges(th []*mem.Event, f *mem.Event, ins *isa.Instr) {
	// Same-thread predecessor/successor event GIDs by access part (static).
	b.predR, b.predW = b.predR[:0], b.predW[:0]
	b.succR, b.succW = b.succR[:0], b.succW[:0]
	for _, e := range th {
		if e.Kind == mem.Fence || e.GID == f.GID {
			continue
		}
		rd, wr := accessParts(e)
		if e.Index < f.Index {
			if b.skel == nil {
				continue // own predecessors are ordered by static edges only
			}
			if rd && ins.Pred.HasR() {
				b.predR = append(b.predR, e.GID)
			}
			if wr && ins.Pred.HasW() {
				b.predW = append(b.predW, e.GID)
			}
		} else {
			if rd && ins.Succ.HasR() {
				b.succR = append(b.succR, e.GID)
			}
			if wr && ins.Succ.HasW() {
				b.succW = append(b.succW, e.GID)
			}
		}
	}
	// Cumulativity (dynamic): writes observed by the fencing thread before
	// the fence join the predecessor set (recursively through reads-from).
	nStatic := len(b.predW)
	if ins.Cum != isa.CumNone && b.dyn() {
		b.predW = b.acumAppend(th, f.Index, b.predW)
	}
	base := fenceReason(ins)
	// (R, R) and (R, W)
	for _, a := range b.predR {
		for _, c := range b.succR {
			b.addS(b.perform(a), b.perform(c), base|fenceRR)
		}
		for _, c := range b.succW {
			for v := 0; v < b.numVis(c); v++ {
				b.addS(b.perform(a), b.visN(c, v), base|fenceRW)
			}
		}
	}
	for i, a := range b.predW {
		static := i < nStatic
		// (W, W): per-core pointwise visibility order.
		for _, c := range b.succW {
			if a == c {
				continue
			}
			b.pointwiseVis(a, c, base|fenceWW, static)
		}
		// (W, R): full flush — the write must be visible to every core
		// before the successor load performs. Plain and heavyweight fences
		// order W→R; lightweight fences never do (Section 2.3.3).
		if ins.Cum != isa.CumLW {
			for _, c := range b.succR {
				if a == c {
					continue
				}
				for v := 0; v < b.numVis(a); v++ {
					b.add(b.visN(a, v), b.perform(c), base|fenceWR, static)
				}
			}
		}
	}
}

// acumAppend appends the A-cumulative predecessor writes of a fence (or of
// a release, under Ours semantics) at position idx of thread th to dst:
// writes read by the thread's earlier loads, closed recursively over writes
// that performed before those writes on their own threads. Allocation-free
// in steady state: dedup marks and the worklist live in builder scratch.
func (b *builder) acumAppend(th []*mem.Event, idx int, dst []int) []int {
	if len(b.cumMark) < len(b.ev) {
		b.cumMark = make([]bool, len(b.ev))
	}
	mark := b.cumMark
	start := len(dst)
	ownThread := -1
	if len(th) > 0 {
		ownThread = th[0].Thread
	}
	frontier := b.cumFront[:0]
	// Seed: sources of own pre-fence reads.
	for _, e := range th {
		if e.Index >= idx || !e.IsRead() {
			continue
		}
		if src := b.x.RF[e.GID]; src != mem.InitWrite && b.ev[src].Thread != ownThread && !mark[src] {
			mark[src] = true
			dst = append(dst, src)
			frontier = append(frontier, src)
		}
	}
	// Close over: reads program-order-before a member on the member's
	// thread (including an AMO member's own read part) contribute their
	// sources ("performed prior to an access in the predecessor set",
	// Section 2.3.2).
	for len(frontier) > 0 {
		w := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		we := b.ev[w]
		for _, e := range b.p.Mem().Threads[we.Thread] {
			if e.Index > we.Index || !e.IsRead() {
				continue
			}
			if src := b.x.RF[e.GID]; src != mem.InitWrite && !mark[src] && b.ev[src].Thread != ownThread {
				mark[src] = true
				dst = append(dst, src)
				frontier = append(frontier, src)
			}
		}
	}
	b.cumFront = frontier[:0]
	for _, w := range dst[start:] {
		mark[w] = false
	}
	return dst
}

// releaseChainContains reports whether target is on the ISA-level release
// sequence ending at write w: starting from w, it follows AMO write-backs
// to their read sources until a non-AMO write (or init) is reached. An
// acquire reading any element of the chain synchronizes with releases
// earlier in the chain, mirroring C11 release sequences through RMWs.
func (b *builder) releaseChainContains(w, target int) bool {
	for w != mem.InitWrite {
		if w == target {
			return true
		}
		e := b.ev[w]
		if e.Kind != mem.RMW {
			return false
		}
		w = b.x.RF[w]
	}
	return false
}

// amoBits adds the acquire/release/SC-annotation semantics of AMOs.
// Mixed tier: acquire, eager-release and SC-pair edges are static; lazy
// (cumulative) release synchronization consults rf, so only lazy releases
// are dynamic sites.
func (b *builder) amoBits() {
	if b.skel == nil {
		for _, g := range b.lazyRels {
			a := b.ev[g]
			b.lazyReleaseEdges(b.p.Mem().Threads[a.Thread], a)
		}
		return
	}
	for t, th := range b.p.Mem().Threads {
		b.th = t
		for _, e := range th {
			ins := b.p.InstrOf(e.GID)
			if !ins.Op.IsAMO() {
				continue
			}
			if ins.Aq {
				b.acquireEdges(th, e)
			}
			switch {
			case !ins.Rl:
			case b.m.Variant == Curr:
				b.eagerReleaseEdges(th, e)
			case b.dyn():
				b.lazyReleaseEdges(th, e)
			default: // the static run records the site
				b.lazyRels = append(b.lazyRels, e.GID)
			}
			if b.scAMO(ins) {
				b.scPairEdges(th, e)
			}
		}
	}
}

// acquireEdges: "no following memory operation can be observed to take
// place before the Acq operation" — the AMO's read performs, and its write
// becomes visible (per core), before later accesses do.
func (b *builder) acquireEdges(th []*mem.Event, a *mem.Event) {
	for _, c := range th {
		if c.Index <= a.Index || c.Kind == mem.Fence {
			continue
		}
		if c.IsRead() {
			b.addS(b.perform(a.GID), b.perform(c.GID), rAmoAqR)
		}
		if c.IsWrite() {
			for v := 0; v < b.numVis(c.GID); v++ {
				b.addS(b.perform(a.GID), b.visN(c.GID, v), rAmoAqW)
			}
			if a.IsWrite() {
				b.pointwiseVis(a.GID, c.GID, rAmoAqVis, true)
			}
		}
	}
}

// eagerReleaseEdges (riscv-curr): "the Rel operation cannot be observed to
// take place before any earlier memory operation" — earlier own reads
// perform, and earlier own writes become visible (per core), before the
// AMO's write does. Non-cumulative: observed remote writes are NOT ordered,
// which is exactly the Section 5.2.1 bug.
//
// For an AMO without a coherence-visible write (an AMO-load carrying rl,
// i.e. the intuitive mapping's SC load AMO.aq.rl), the spec's "cannot be
// observed to happen before any earlier memory operations in the same
// RISC-V thread" orders the AMO's read after earlier reads' performs and
// earlier writes' full visibility.
func (b *builder) eagerReleaseEdges(th []*mem.Event, a *mem.Event) {
	if !a.IsWrite() {
		for _, p := range th {
			if p.Index >= a.Index || p.Kind == mem.Fence {
				continue
			}
			if p.IsRead() {
				b.addS(b.perform(p.GID), b.perform(a.GID), rAmoRlLoadR)
			}
			if p.IsWrite() {
				for v := 0; v < b.numVis(p.GID); v++ {
					b.addS(b.visN(p.GID, v), b.perform(a.GID), rAmoRlLoadW)
				}
			}
		}
		return
	}
	for _, p := range th {
		if p.Index >= a.Index || p.Kind == mem.Fence {
			continue
		}
		if p.IsRead() {
			for v := 0; v < b.numVis(a.GID); v++ {
				b.addS(b.perform(p.GID), b.visN(a.GID, v), rAmoRlR)
			}
		}
		if p.IsWrite() {
			b.pointwiseVis(p.GID, a.GID, rAmoRlW, true)
		}
	}
}

// lazyReleaseEdges (riscv-ours, Section 5.2.3): the release imposes no
// unconditional visibility order. When an acquire on another core reads
// from the release, the release's cumulative predecessor set must be
// visible to that core before the acquire performs.
func (b *builder) lazyReleaseEdges(th []*mem.Event, a *mem.Event) {
	for _, g := range b.acqAMOs { // only acquires synchronize (lazy cumulativity)
		r := b.ev[g]
		if r.Thread == a.Thread {
			continue
		}
		// The acquire must read the release's write, possibly through a
		// chain of intervening AMO write-backs (a release sequence).
		if !b.releaseChainContains(b.x.RF[r.GID], a.GID) {
			continue
		}
		// Predecessor set: own earlier accesses plus A-cumulative writes.
		for _, p := range th {
			if p.Index >= a.Index || p.Kind == mem.Fence {
				continue
			}
			if p.IsRead() {
				b.addD(b.perform(p.GID), b.perform(r.GID), rRelSyncR)
			}
			if p.IsWrite() {
				b.addD(b.visTo(p.GID, r.Thread), b.perform(r.GID), rRelSyncW)
			}
		}
		b.cumBuf = b.acumAppend(th, a.Index, b.cumBuf[:0])
		for _, w := range b.cumBuf {
			b.addD(b.visTo(w, r.Thread), b.perform(r.GID), rRelSyncCum)
		}
	}
}

// scPairEdges: SC AMOs appear in a global order consistent with program
// order ("observed by any other thread in the same global order of all
// sequentially consistent atomic memory operations"): two same-thread SC
// AMOs are fully ordered, read performs and write visibility alike.
func (b *builder) scPairEdges(th []*mem.Event, a *mem.Event) {
	for _, c := range th {
		if c.Index <= a.Index {
			continue
		}
		cIns := b.p.InstrOf(c.GID)
		if !b.scAMO(cIns) {
			continue
		}
		b.addS(b.perform(a.GID), b.perform(c.GID), rScOrder)
		if a.IsWrite() {
			for i := 0; i < b.numVis(a.GID); i++ {
				va := b.visN(a.GID, i)
				b.addS(va, b.perform(c.GID), rScOrder)
				if c.IsWrite() {
					for j := 0; j < b.numVis(c.GID); j++ {
						b.addS(va, b.visN(c.GID, j), rScOrder)
					}
				}
			}
		}
		if c.IsWrite() {
			for j := 0; j < b.numVis(c.GID); j++ {
				b.addS(b.perform(a.GID), b.visN(c.GID, j), rScOrder)
			}
		}
	}
}
