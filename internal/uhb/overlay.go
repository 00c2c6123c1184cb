package uhb

import "fmt"

// Overlay is the dynamic tier of a two-tier µhb graph: the
// execution-dependent edges of one candidate execution (coherence order,
// reads-from, from-reads, dependency-sourced values, cumulative fence
// closures) layered over a frozen Skeleton.
//
// Overlays are resettable and allocation-free in steady state: all edge
// and traversal storage lives in reusable buffers that survive Reset, so
// one overlay can serve an entire enumeration sweep. A sweep decides each
// candidate with a Closure and fills an overlay, from the closure's edge
// log, only for a candidate the closure finds cyclic, or cannot decide
// (a skeleton Attach did not take): the evaluator owns one overlay and
// Resets it per such candidate.
//
// Unlike a Skeleton, an Overlay does not deduplicate edges: duplicates
// cannot change acyclicity, the number of AddEdge calls is already
// bounded by the builder's work, and skipping the lookup keeps the hot
// path branch-free. Reason codes are stored but never resolved here.
//
// The overlay's DFS is the package's one cycle search: an overlay over a
// skeleton with no dynamic edges searches the skeleton alone, which is
// how diagnostics find the cycle of a fully materialized graph.
type Overlay struct {
	skel *Skeleton

	// Dynamic adjacency as per-node singly linked lists threaded through
	// shared buffers: head[v] is the first edge index of node v or -1,
	// next[e] chains, to[e]/reason[e] describe edge e. Lists are built
	// head-first, so the DFS meets a node's dynamic edges newest first.
	head   []int32
	next   []int32
	to     []int32
	reason []uint32

	// Cycle-check scratch, sized to the node count.
	color []byte
	fnode []int32  // DFS stack: node per frame
	fsidx []int32  // next static-CSR index to explore
	fdyn  []int32  // next dynamic edge index to explore (-1 = done)
	fvia  []uint32 // reason code of the edge that entered each frame
}

// NewOverlay returns an overlay bound to skel, ready for AddEdge.
func NewOverlay(skel *Skeleton) *Overlay {
	o := &Overlay{}
	o.Reset(skel)
	return o
}

// Reset rebinds the overlay to skel (which may differ from the previous
// binding) and discards all dynamic edges, retaining buffer capacity.
func (o *Overlay) Reset(skel *Skeleton) {
	if !skel.frozen {
		panic("uhb: Overlay.Reset on unfrozen Skeleton")
	}
	o.skel = skel
	n := skel.n
	o.head = grow(o.head, n)
	o.color = grow(o.color, n)
	o.fnode = grow(o.fnode, n)
	o.fsidx = grow(o.fsidx, n)
	o.fdyn = grow(o.fdyn, n)
	o.fvia = grow(o.fvia, n)
	for i := range o.head {
		o.head[i] = -1
	}
	o.next = o.next[:0]
	o.to = o.to[:0]
	o.reason = o.reason[:0]
}

// AddEdge records a dynamic edge with an opaque reason code.
func (o *Overlay) AddEdge(from, to int, reason uint32) {
	if from < 0 || from >= o.skel.n || to < 0 || to >= o.skel.n {
		panic(fmt.Sprintf("uhb: overlay edge (%d,%d) out of range [0,%d)", from, to, o.skel.n))
	}
	e := int32(len(o.to))
	o.next = append(o.next, o.head[from])
	o.to = append(o.to, int32(to))
	o.reason = append(o.reason, reason)
	o.head[from] = e
}

// HasCycle reports whether skeleton+overlay contains a directed cycle.
// The search is iterative (explicit stack) and allocation-free: all
// scratch lives in the overlay's reusable buffers, so deep graphs from
// synthesized variants can neither overflow a goroutine stack nor
// allocate per call.
func (o *Overlay) HasCycle() bool {
	j, _, _ := o.cycle()
	return j >= 0
}

// HasCycleReasons is HasCycle with provenance: when a cycle exists, the
// reason codes of every edge on the first cycle found (in traversal
// order, duplicates preserved) are appended to buf. The search is the
// same deterministic DFS as HasCycle, so the witnessing cycle — and
// therefore the reason multiset — is stable for a given skeleton,
// overlay contents, and insertion order. Pass a buffer with spare
// capacity (e.g. a reused buf[:0]) to keep the call allocation-free.
func (o *Overlay) HasCycleReasons(buf []uint32) ([]uint32, bool) {
	j, f, r := o.cycle()
	if j < 0 {
		return buf, false
	}
	buf = append(buf, o.fvia[j+1:f+1]...)
	return append(buf, r), true
}

// FindCycle returns the nodes of the first cycle the DFS finds, or nil
// if the graph is acyclic: c[0] → c[1] → … → c[len-1] → c[0], where
// c[len-1] is the node the closing edge re-enters. Successors are
// explored static tier first, in target order, so over a skeleton with
// no dynamic edges the reported cycle depends only on the edge set.
func (o *Overlay) FindCycle() []int {
	j, f, _ := o.cycle()
	if j < 0 {
		return nil
	}
	c := make([]int, 0, f-j+1)
	for _, v := range o.fnode[j+1 : f+1] {
		c = append(c, int(v))
	}
	return append(c, int(o.fnode[j]))
}

// cycle runs the DFS. On a cycle it returns the stack frames it spans:
// frame j holds the node the closing edge re-enters, frames j+1..f the
// path from there to the closing edge's source (each entered through
// the reason in fvia), and r is the closing edge's reason. j is -1 when
// the graph is acyclic.
func (o *Overlay) cycle() (j, f int, r uint32) {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	s := o.skel
	n := s.n
	color := o.color
	for i := range color {
		color[i] = white
	}
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		sp := 0
		o.fnode[sp] = int32(start)
		o.fsidx[sp] = s.off[start]
		o.fdyn[sp] = o.head[start]
		color[start] = gray
		sp++
		for sp > 0 {
			f := sp - 1
			v := o.fnode[f]
			var w int32 = -1
			var r uint32
			if i := o.fsidx[f]; i < s.off[v+1] {
				w = s.dst[i]
				r = s.reason[i]
				o.fsidx[f] = i + 1
			} else if e := o.fdyn[f]; e >= 0 {
				w = o.to[e]
				r = o.reason[e]
				o.fdyn[f] = o.next[e]
			} else {
				color[v] = black
				sp--
				continue
			}
			switch color[w] {
			case white:
				color[w] = gray
				o.fnode[sp] = w
				o.fsidx[sp] = s.off[w]
				o.fdyn[sp] = o.head[w]
				o.fvia[sp] = r
				sp++
			case gray:
				// w is gray, so it sits somewhere on the DFS stack.
				j := f
				for o.fnode[j] != w {
					j--
				}
				return j, f, r
			}
		}
	}
	return -1, -1, 0
}
