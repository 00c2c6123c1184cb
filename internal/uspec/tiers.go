package uspec

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// Thread tiers.
//
// Every static edge joins two nodes of one thread. The static run's
// passes walk the program thread by thread, and every addS call they
// make stays inside the walked thread: the pipeline's per-instruction
// paths and in-order chains, the ppo pairs, the dependencies, a fence's
// own predecessors and successors, and the acquire, eager-release and
// SC-pair AMO edges all take both ends from one thread's event list;
// everything that crosses threads (rf, fr, ws, the cumulative closures
// and lazy releases) consults the execution and is dynamic.
// TestStaticEdgesStayInOneThread holds it. Three facts follow, and they
// are why a program's static tier is the concatenation of its threads':
//
//   - Freeze's first-reason-wins dedup keys on (from, to), whose ends lie
//     in one thread, and a thread's edges reach it in the same relative
//     order alone as in the whole build. So the thread's frozen rows keep
//     the reasons the whole build keeps.
//   - A node is gid*K + slot, and compile.Compile adds threads in order,
//     so each thread's nodes, and its ports (listed in GID order), are
//     contiguous ranges that a shift rebases. A port reaches only ports
//     of its own thread, so its reach row is the thread's row shifted by
//     the thread's first port.
//   - The static run records dynamic sites thread by thread within each
//     kind (pairs, cumulative fences, lazy releases). So the threads'
//     sites concatenated in thread order are the whole build's walk
//     order, and a cyclic candidate's overlay names the same cycle.
//
// What a thread's tier depends on is the model, the program's thread
// count C (an nMCA layout has K = slotVis0 + C + 1 and C visibility nodes
// per write) and what the static passes read of each of the thread's
// events, which appendCode writes down.

// Tiers is one sweep's cache of thread tiers, shared by the sweep's
// workers. A program's lookup finds or makes a slot per thread and
// model; a slot's tier is written once, on the second whole build of its
// thread under its model in the sweep (a tier built once never pays back
// its copy), and only read after that. Tiers live in a few per-sweep
// slabs and die with the sweep. A nil *Tiers stores nothing.
type Tiers struct {
	models int // slots per thread code: the sweep's models

	mu     sync.Mutex // guards byCode and the slabs
	byCode map[string][]tierSlot
	slots  []tierSlot
	sets   [][]tierSlot
	tiers  []tier
	i32    []int32
	u32    []uint32
	u64    []uint64
}

// tierSlot is one (thread code, model) entry of a Tiers.
type tierSlot struct {
	tier   atomic.Pointer[tier]
	builds atomic.Int32 // whole builds of the thread under the model
}

// tier is one thread's static tier under one model, rebased so that the
// thread's first event is GID 0 and its first node is node 0.
type tier struct {
	fired, edges uint64   // the thread's Coverage.Fired and .Edges bits
	off, dst     []int32  // the thread's frozen CSR rows, in Rows' form
	reason       []uint32 // by dst position
	ports        []int32  // the thread's ports, ascending
	reach        []uint64 // by port: the thread's ports it reaches
	// The thread's dynamic sites, in walk order: pairs holds the
	// same-thread pairs' two GIDs each.
	pairs, cumFences, lazyRels []int32
}

// The largest slab chunks, in elements: about 16 KiB each. A slab's
// chunks start at a 64th of that and double, so that a sweep of a few
// tests, which stores few tiers, allocates little.
const (
	slotChunk = 1 << 10
	setChunk  = 1 << 9
	tierChunk = 1 << 6
	wordChunk = 1 << 12
)

// NewTiers returns an empty cache for a sweep over the given number of
// models; a program's PrepareTiers calls name their model by its index
// in the sweep.
func NewTiers(models int) *Tiers {
	return &Tiers{models: models, byCode: map[string][]tierSlot{}}
}

// ProgramTiers is one program's thread slots in a Tiers, from Lookup.
// The zero value builds the program whole and stores nothing.
type ProgramTiers struct {
	c       *Tiers
	threads [][]tierSlot // by thread, each by model index
}

// Lookup finds or makes the slots of p's threads, once per program for
// all the models that prepare it, under one lock. A program whose
// threads' GIDs interleave (only a hand-built program can) is always
// built whole, because its threads' nodes are not contiguous ranges.
func (c *Tiers) Lookup(p *isa.Program) ProgramTiers {
	if c == nil {
		return ProgramTiers{}
	}
	threads := p.Mem().Threads
	code := make([]byte, 0, 256)
	ends := make([]int, 0, 8)
	gid := 0
	for _, th := range threads {
		code = binary.AppendUvarint(code, uint64(len(threads)))
		for _, e := range th {
			if e.GID != gid {
				return ProgramTiers{}
			}
			gid++
			code = appendCode(code, p.InstrOf(e.GID), e)
		}
		ends = append(ends, len(code))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := carve(&c.sets, len(threads), setChunk)
	start := 0
	for t, end := range ends {
		s, ok := c.byCode[string(code[start:end])]
		if !ok {
			s = carve(&c.slots, c.models, slotChunk)
			c.byCode[string(code[start:end])] = s
		}
		set[t], start = s, end
	}
	return ProgramTiers{c, set}
}

// appendCode appends what the static passes read of event e, issued by
// instruction ins: its kind and op, the AMO bits, the fence's classes and
// cumulativity, its address (a constant or a register), its data's kind
// and register, its destination register and its control dependencies.
// A store's value is never read, so it stays out.
func appendCode(dst []byte, ins *isa.Instr, e *mem.Event) []byte {
	var amo byte
	if ins.Aq {
		amo |= 1
	}
	if ins.Rl {
		amo |= 2
	}
	if ins.SCBit {
		amo |= 4
	}
	dst = append(dst, byte(e.Kind), byte(ins.Op), amo, byte(ins.Pred), byte(ins.Succ), byte(ins.Cum), byte(e.Addr.Kind), byte(e.Data.Kind))
	if e.Addr.Kind == mem.OpReg {
		dst = binary.AppendVarint(dst, int64(e.Addr.Reg))
	} else {
		dst = binary.AppendVarint(dst, e.Addr.Const)
	}
	if e.Data.Kind == mem.OpReg {
		dst = binary.AppendVarint(dst, int64(e.Data.Reg))
	}
	dst = binary.AppendVarint(dst, int64(e.Dst))
	dst = binary.AppendUvarint(dst, uint64(len(e.CtrlDepOn)))
	for _, d := range e.CtrlDepOn {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	return dst
}

// carve returns n elements from the slab, opening a chunk twice the size
// of the last, from chunk/64 up to chunk elements, when the current one
// is short. The elements are zero.
func carve[T any](slab *[]T, n, chunk int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, min(max(2*cap(*slab), chunk/64), chunk)))
	}
	l := len(*slab)
	*slab = (*slab)[:l+n]
	return (*slab)[l : l+n : l+n]
}

// assemble builds pr's static tier, port closure, coverage bits and
// sites from its threads' stored tiers under model index mi: rows
// concatenated, with no sort, dedup or closure pass. It reports false,
// having changed nothing, when some thread has no tier yet or the
// program's ports need more than one row word (the paper suite has at
// most 16 ports, the synthesized corpus at most 24); the caller then
// builds whole.
func (pr *Prepared) assemble(pt ProgramTiers, mi int) bool {
	if pt.threads == nil {
		return false
	}
	np := 0
	for _, s := range pt.threads {
		t := s[mi].tier.Load()
		if t == nil {
			return false
		}
		np += len(t.ports)
	}
	if np > 64 {
		return false
	}
	b := &pr.b
	pr.skel.BeginRows(len(b.ev) * b.K)
	pr.ports, pr.reach = pr.ports[:0], pr.reach[:0]
	g0 := 0
	for i, s := range pt.threads {
		t := s[mi].tier.Load()
		base := int32(g0 * b.K)
		pr.skel.AppendRows(t.off, t.dst, t.reason, base)
		pr.cov.Fired |= t.fired
		pr.cov.Edges |= t.edges
		p0 := len(pr.ports)
		for _, v := range t.ports {
			pr.ports = append(pr.ports, v+base)
		}
		for _, r := range t.reach {
			pr.reach = append(pr.reach, r<<p0)
		}
		for j := 0; j < len(t.pairs); j += 2 {
			b.pairs = append(b.pairs, [2]int{g0 + int(t.pairs[j]), g0 + int(t.pairs[j+1])})
		}
		for _, g := range t.cumFences {
			b.cumFences = append(b.cumFences, g0+int(g))
		}
		for _, g := range t.lazyRels {
			b.lazyRels = append(b.lazyRels, g0+int(g))
		}
		g0 += len(b.p.Mem().Threads[i])
	}
	pr.cl.AttachReach(&pr.skel, pr.ports, pr.reach)
	return true
}

// split stores, from pr's whole build under model index mi, the tier of
// every thread whose slot is empty and which the sweep has now built
// whole twice. Nothing is stored from a skeleton that is cyclic (every
// candidate of such a program is cyclic, and the closure keeps no rows)
// or whose ports need more than one row word.
func (pr *Prepared) split(pt ProgramTiers, mi int) {
	if pt.threads == nil || len(pr.ports) > 64 || pr.cl.HasCycle() {
		return
	}
	g0 := 0
	for i, s := range pt.threads {
		g1 := g0 + len(pr.b.p.Mem().Threads[i])
		if slot := &s[mi]; slot.tier.Load() == nil && slot.builds.Add(1) == 2 {
			slot.tier.Store(pt.c.newTier(pr, i, g0, g1))
		}
		g0 = g1
	}
}

// newTier copies thread i's tier, events [g0, g1), out of pr's whole
// build into the slabs.
func (c *Tiers) newTier(pr *Prepared, i, g0, g1 int) *tier {
	b := &pr.b
	lo, hi := g0*b.K, g1*b.K
	off, dst, reason := pr.skel.Rows(lo, hi)
	p0, p1 := 0, 0
	for p1 < len(pr.ports) && int(pr.ports[p1]) < hi {
		if int(pr.ports[p1]) < lo {
			p0++
		}
		p1++
	}
	in := func(g int) bool { return g0 <= g && g < g1 }
	pairs, fences, rels := 0, 0, 0
	for _, s := range b.pairs {
		if in(s[0]) {
			pairs++
		}
	}
	for _, g := range b.cumFences {
		if in(g) {
			fences++
		}
	}
	for _, g := range b.lazyRels {
		if in(g) {
			rels++
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	t := &carve(&c.tiers, 1, tierChunk)[0]
	t.fired = b.fired[i]
	t.off = carve(&c.i32, len(off), wordChunk)
	for j, o := range off {
		t.off[j] = o - off[0]
	}
	t.dst = carve(&c.i32, len(dst), wordChunk)
	for j, d := range dst {
		t.dst[j] = d - int32(lo)
	}
	t.reason = carve(&c.u32, len(reason), wordChunk)
	copy(t.reason, reason)
	for _, r := range reason {
		t.edges |= axiomBit(Reason(r))
	}
	t.ports = carve(&c.i32, p1-p0, wordChunk)
	t.reach = carve(&c.u64, p1-p0, wordChunk)
	for j := range t.ports {
		t.ports[j] = pr.ports[p0+j] - int32(lo)
		t.reach[j] = pr.cl.Reach(p0+j) >> p0
	}
	t.pairs = carve(&c.i32, 2*pairs, wordChunk)[:0]
	for _, s := range b.pairs {
		if in(s[0]) {
			t.pairs = append(t.pairs, int32(s[0]-g0), int32(s[1]-g0))
		}
	}
	t.cumFences = carve(&c.i32, fences, wordChunk)[:0]
	for _, g := range b.cumFences {
		if in(g) {
			t.cumFences = append(t.cumFences, int32(g-g0))
		}
	}
	t.lazyRels = carve(&c.i32, rels, wordChunk)[:0]
	for _, g := range b.lazyRels {
		if in(g) {
			t.lazyRels = append(t.lazyRels, int32(g-g0))
		}
	}
	return t
}
