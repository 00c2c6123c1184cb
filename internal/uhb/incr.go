package uhb

import (
	"math/bits"
	"sync"
)

// Incr is the incremental tier of the µhb evaluation core: it maintains
// a topological order of skeleton + committed dynamic edges across an
// entire enumeration sweep, so the per-candidate acyclicity verdict
// costs a word-parallel diff plus a bounded reorder per changed edge
// instead of a full-graph DFS.
//
// The algorithm is the one-sided incremental topological sort of
// Marchetti-Spaccamela/Nanni/Rohnert: inserting (x, y) with
// pos[y] < pos[x] runs a forward DFS from y restricted to positions
// ≤ pos[x]; if it reaches x the edge closes a cycle, otherwise the
// discovered set shifts to just after x, preserving relative order.
// Because every committed edge respects the order, retracting edges
// never invalidates it — removal is free.
//
// Cycles are represented as *deferred edges*: an insertion that fails
// is parked instead of committed, and the graph is cyclic exactly while
// the deferred set is non-empty. This makes the verdict independent of
// insertion order (an acyclic edge set admits an order in which every
// insertion succeeds; a cyclic one cannot commit all edges under any
// order) and lets a retraction resurrect parked edges cheaply.
//
// Committed dynamic adjacency is stored as per-node uint64 bitset rows,
// mirroring Overlay's rows, so Sync can diff an overlay's edge set
// against the engine state a word at a time.
type Incr struct {
	skel       *Skeleton
	n, words   int
	skelCyclic bool

	// Committed dynamic adjacency: row v is dyn[v*words:(v+1)*words].
	dyn []uint64
	// Deferred (cycle-witness) edges, insertion order, plus the same
	// set as bitset rows for the Sync diff.
	deferred []incrEdge
	defBits  []uint64
	// Rows with any committed or deferred bit, for sparse iteration.
	active    []int32
	activeRow []bool

	// pos[v] is node v's position in the maintained order; ord is the
	// inverse permutation.
	pos []int32
	ord []int32

	// DFS / shift scratch (epoch-stamped visited marks keep Sync
	// allocation-free).
	mark  []int32
	epoch int32
	stack []int32
	flist []int32

	synced bool // one Sync has run since Attach (reuse accounting)
}

type incrEdge struct{ from, to int32 }

// Attach binds the engine to a frozen skeleton, computes the initial
// topological order (Kahn over the static CSR), and discards all
// dynamic state, retaining buffer capacity.
func (ic *Incr) Attach(skel *Skeleton) {
	if !skel.frozen {
		panic("uhb: Incr.Attach on unfrozen Skeleton")
	}
	ic.skel = skel
	n := skel.n
	words := (n + 63) / 64
	ic.n, ic.words = n, words
	if cap(ic.pos) < n {
		ic.pos = make([]int32, n)
		ic.ord = make([]int32, n)
		ic.mark = make([]int32, n)
		ic.activeRow = make([]bool, n)
	}
	ic.pos = ic.pos[:n]
	ic.ord = ic.ord[:n]
	ic.mark = ic.mark[:n]
	ic.activeRow = ic.activeRow[:n]
	if cap(ic.dyn) < n*words {
		ic.dyn = make([]uint64, n*words)
		ic.defBits = make([]uint64, n*words)
	}
	ic.dyn = ic.dyn[:n*words]
	ic.defBits = ic.defBits[:n*words]
	for i := range ic.dyn {
		ic.dyn[i] = 0
		ic.defBits[i] = 0
	}
	for i := range ic.mark {
		ic.mark[i] = 0
	}
	for i := range ic.activeRow {
		ic.activeRow[i] = false
	}
	ic.epoch = 0
	ic.active = ic.active[:0]
	ic.deferred = ic.deferred[:0]
	ic.synced = false

	// Kahn over the static CSR: indeg in mark (reset above), the FIFO
	// in stack's storage, since ord is the output.
	placed, queue := skel.kahn(ic.ord, ic.mark, ic.stack)
	ic.stack = queue
	for i, v := range ic.ord[:placed] {
		ic.pos[v] = int32(i)
	}
	ic.skelCyclic = placed < n
	if ic.skelCyclic {
		// No valid order exists; every verdict is cyclic regardless of
		// dynamic edges. Fill the permutation arbitrarily so the
		// invariant len(ord) == n holds for diagnostics.
		for v := 0; v < n; v++ {
			ic.ord[v] = int32(v)
			ic.pos[v] = int32(v)
		}
	}
	for i := range ic.mark {
		ic.mark[i] = 0
	}
}

// Sync reconciles the engine with an overlay's dynamic edge set —
// retracting committed/deferred edges the overlay no longer has,
// retrying deferred edges when a retraction may have unblocked them,
// and inserting new ones — then returns the acyclicity verdict for
// skeleton + overlay. fresh is true on the first Sync after Attach
// (the order was rebuilt rather than reused).
//
// The overlay must be bound to the same skeleton. Verdicts agree with
// Overlay.HasCycle by construction: acyclicity depends only on the
// edge *set*, and the deferred representation is insertion-order
// independent.
func (ic *Incr) Sync(ov *Overlay) (cyclic, fresh bool) {
	fresh = !ic.synced
	ic.synced = true
	if ic.skelCyclic {
		return true, fresh
	}
	if ov.skel != ic.skel {
		panic("uhb: Incr.Sync overlay bound to a different Skeleton")
	}
	words := ic.words

	// Pass 1: retractions, word-parallel over every row either side has
	// bits in. Committed removals keep the order valid; deferred
	// removals just shrink the witness set.
	removedCommitted := false
	droppedDeferred := false
	syncRow := func(v int32) {
		base := int(v) * words
		dynRow := ic.dyn[base : base+words]
		defRow := ic.defBits[base : base+words]
		wantRow := ov.bits[base : base+words]
		for j := 0; j < words; j++ {
			want := wantRow[j]
			if gone := dynRow[j] &^ want; gone != 0 {
				dynRow[j] &= want
				removedCommitted = true
			}
			if gone := defRow[j] &^ want; gone != 0 {
				defRow[j] &= want
				droppedDeferred = true
			}
		}
	}
	for _, v := range ic.active {
		syncRow(v)
	}
	for _, v := range ov.dirty {
		if !ic.activeRow[v] {
			// Row the engine has no bits in: nothing to retract, but
			// mark it active so additions below scan it.
			ic.activeRow[v] = true
			ic.active = append(ic.active, v)
		}
	}
	if droppedDeferred {
		ic.compactDeferred()
	}
	if removedCommitted && len(ic.deferred) > 0 {
		ic.retryDeferred()
	}

	// Pass 2: additions — bits the overlay has that the engine doesn't.
	for _, v := range ic.active {
		base := int(v) * words
		dynRow := ic.dyn[base : base+words]
		defRow := ic.defBits[base : base+words]
		wantRow := ov.bits[base : base+words]
		for j := 0; j < words; j++ {
			add := wantRow[j] &^ (dynRow[j] | defRow[j])
			for add != 0 {
				y := int32(j<<6 + bits.TrailingZeros64(add))
				add &= add - 1
				if !ic.tryInsert(v, y) {
					ic.defer_(v, y)
				}
			}
		}
	}
	return len(ic.deferred) > 0, fresh
}

// tryInsert commits edge (x, y), restoring the topological order with a
// bounded reorder, or reports false when the edge would close a cycle
// (leaving all state untouched).
func (ic *Incr) tryInsert(x, y int32) bool {
	if x == y {
		return false
	}
	px, py := ic.pos[x], ic.pos[y]
	if py > px {
		ic.commit(x, y)
		return true
	}
	// Discovery: nodes reachable from y at positions ≤ pos[x]. Every
	// existing edge respects the order, so the walk only moves forward.
	ic.epoch++
	epoch := ic.epoch
	stack := append(ic.stack[:0], y)
	flist := ic.flist[:0]
	ic.mark[y] = epoch
	s := ic.skel
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		flist = append(flist, v)
		// Static successors.
		for i := s.off[v]; i < s.off[v+1]; i++ {
			w := s.dst[i]
			if ic.pos[w] > px {
				continue
			}
			if w == x {
				ic.stack, ic.flist = stack[:0], flist[:0]
				return false
			}
			if ic.mark[w] != epoch {
				ic.mark[w] = epoch
				stack = append(stack, w)
			}
		}
		// Committed dynamic successors.
		base := int(v) * ic.words
		for j := 0; j < ic.words; j++ {
			row := ic.dyn[base+j]
			for row != 0 {
				w := int32(j<<6 + bits.TrailingZeros64(row))
				row &= row - 1
				if ic.pos[w] > px {
					continue
				}
				if w == x {
					ic.stack, ic.flist = stack[:0], flist[:0]
					return false
				}
				if ic.mark[w] != epoch {
					ic.mark[w] = epoch
					stack = append(stack, w)
				}
			}
		}
	}
	// Shift: move the discovered set to just after x, preserving its
	// relative order. Insertion sort by position — the set is small.
	for i := 1; i < len(flist); i++ {
		v := flist[i]
		j := i - 1
		for j >= 0 && ic.pos[flist[j]] > ic.pos[v] {
			flist[j+1] = flist[j]
			j--
		}
		flist[j+1] = v
	}
	w := py // == pos[flist[0]]: y has the smallest position in the set
	for i := py; i <= px; i++ {
		v := ic.ord[i]
		if ic.mark[v] == epoch {
			continue // in the discovered set; placed below
		}
		ic.ord[w] = v
		ic.pos[v] = w
		w++
	}
	for _, v := range flist {
		ic.ord[w] = v
		ic.pos[v] = w
		w++
	}
	ic.stack, ic.flist = stack[:0], flist[:0]
	ic.commit(x, y)
	return true
}

func (ic *Incr) commit(x, y int32) {
	ic.dyn[int(x)*ic.words+int(y)>>6] |= 1 << (uint(y) & 63)
	ic.touch(x)
}

func (ic *Incr) defer_(x, y int32) {
	ic.deferred = append(ic.deferred, incrEdge{x, y})
	ic.defBits[int(x)*ic.words+int(y)>>6] |= 1 << (uint(y) & 63)
	ic.touch(x)
}

func (ic *Incr) touch(v int32) {
	if !ic.activeRow[v] {
		ic.activeRow[v] = true
		ic.active = append(ic.active, v)
	}
}

// compactDeferred drops every deferred entry whose defBits bit was
// cleared by a Sync retraction pass.
func (ic *Incr) compactDeferred() {
	kept := ic.deferred[:0]
	for _, e := range ic.deferred {
		if ic.defBits[int(e.from)*ic.words+int(e.to)>>6]&(1<<(uint(e.to)&63)) != 0 {
			kept = append(kept, e)
		}
	}
	ic.deferred = kept
}

// retryDeferred re-attempts every deferred edge after a committed
// retraction; successes move to the committed set.
func (ic *Incr) retryDeferred() {
	kept := ic.deferred[:0]
	for _, e := range ic.deferred {
		if ic.tryInsert(e.from, e.to) {
			ic.defBits[int(e.from)*ic.words+int(e.to)>>6] &^= 1 << (uint(e.to) & 63)
		} else {
			kept = append(kept, e)
		}
	}
	ic.deferred = kept
}

// incrPool recycles engines across evaluations, mirroring overlayPool:
// one engine per worker per sweep, buffers surviving release.
var incrPool = sync.Pool{New: func() any { return &Incr{} }}

// AcquireIncr returns a pooled engine attached to skel. Release it with
// ReleaseIncr when the sweep is done.
func AcquireIncr(skel *Skeleton) *Incr {
	ic := incrPool.Get().(*Incr)
	ic.Attach(skel)
	return ic
}

// ReleaseIncr returns an engine to the pool. The caller must not use it
// afterwards.
func ReleaseIncr(ic *Incr) {
	ic.skel = nil
	incrPool.Put(ic)
}
