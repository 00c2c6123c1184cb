package uhb

import (
	"fmt"
	"sort"
)

// Skeleton is the static tier of a two-tier µhb graph: the node numbering
// and every execution-independent edge of one compiled program under one
// model configuration — pipeline and per-instruction path order, preserved
// program order that does not consult rf/mo, dependency edges, the
// non-cumulative part of fence semantics, and AMO annotation edges.
//
// A Skeleton is built once per (program, model) and then shared, read-only,
// by every execution candidate: per-execution edges (coherence, reads-from,
// from-reads, cumulative fence closures) layer on top, decided by a
// Closure and, for a cyclic candidate, searched via an Overlay.
// Edges carry opaque uint32 reason codes supplied by the builder; the
// Skeleton never formats or stores a string, keeping diagnostics entirely
// lazy. Diagnostics build a one-tier skeleton holding every edge of one
// execution, static and dynamic, and search it with an edge-less Overlay.
//
// Construction is two-phase: AddEdge while building, then Freeze, after
// which the edge set is immutable and stored in CSR (compressed sparse
// row) form for allocation-free traversal.
type Skeleton struct {
	n      int
	frozen bool

	// Under construction: one entry per AddEdge call, in call order.
	bFrom, bTo []int32
	bReason    []uint32

	// Frozen CSR: node v's static successors are dst[off[v]:off[v+1]],
	// deduplicated (first reason per (from,to) wins) and sorted by target.
	off    []int32
	dst    []int32
	reason []uint32

	// Freeze scratch, kept across Reset.
	idxBuf, nextBuf []int32
}

// NewSkeleton returns an empty skeleton over n nodes, ready for AddEdge.
func NewSkeleton(n int) *Skeleton {
	return &Skeleton{n: n}
}

// Reset empties the skeleton and sizes it to n nodes, ready for AddEdge.
// It keeps the capacity of the edge and CSR arrays, so an owner that
// builds one skeleton after another does not regrow them.
func (s *Skeleton) Reset(n int) {
	s.n = n
	s.frozen = false
	s.bFrom = s.bFrom[:0]
	s.bTo = s.bTo[:0]
	s.bReason = s.bReason[:0]
	s.off = s.off[:0]
	s.dst = s.dst[:0]
	s.reason = s.reason[:0]
}

// NumNodes returns the number of nodes.
func (s *Skeleton) NumNodes() int { return s.n }

// NumEdges returns the number of distinct static edges (valid after
// Freeze).
func (s *Skeleton) NumEdges() int { return len(s.dst) }

// AddEdge records a static edge with an opaque reason code. Panics if the
// skeleton is frozen or the edge is out of range. Duplicates are accepted
// and collapsed by Freeze, keeping the first reason.
func (s *Skeleton) AddEdge(from, to int, reason uint32) {
	if s.frozen {
		panic("uhb: AddEdge on frozen Skeleton")
	}
	if from < 0 || from >= s.n || to < 0 || to >= s.n {
		panic(fmt.Sprintf("uhb: skeleton edge (%d,%d) out of range [0,%d)", from, to, s.n))
	}
	s.bFrom = append(s.bFrom, int32(from))
	s.bTo = append(s.bTo, int32(to))
	s.bReason = append(s.bReason, reason)
}

// Freeze deduplicates the recorded edges and builds the CSR form. After
// Freeze the skeleton is immutable and safe for concurrent readers.
func (s *Skeleton) Freeze() {
	if s.frozen {
		return
	}
	s.frozen = true
	m := len(s.bFrom)
	// Sort edge indices by (from, to, insertion order) so duplicates are
	// adjacent with the first-recorded one leading: a stable counting
	// sort on `from` (one bucket per node), then an insertion sort by
	// `to` inside each bucket — out-degrees are small, and skeletons are
	// frozen once per prepared test, where the generic sort's comparator
	// overhead showed up in cold-sweep profiles.
	if cap(s.off) < s.n+1 {
		s.off = make([]int32, s.n+1)
	} else {
		s.off = s.off[:s.n+1]
		clear(s.off)
	}
	for _, f := range s.bFrom {
		s.off[f+1]++
	}
	for v := 0; v < s.n; v++ {
		s.off[v+1] += s.off[v]
	}
	if cap(s.idxBuf) < m {
		s.idxBuf = make([]int32, m)
	}
	idx := s.idxBuf[:m]
	if cap(s.nextBuf) < s.n {
		s.nextBuf = make([]int32, s.n)
	}
	next := s.nextBuf[:s.n]
	copy(next, s.off[:s.n])
	for i, f := range s.bFrom {
		idx[next[f]] = int32(i)
		next[f]++
	}
	for v := 0; v < s.n; v++ {
		bucket := idx[s.off[v]:s.off[v+1]]
		for i := 1; i < len(bucket); i++ {
			e := bucket[i]
			j := i
			for j > 0 && s.bTo[bucket[j-1]] > s.bTo[e] {
				bucket[j] = bucket[j-1]
				j--
			}
			bucket[j] = e
		}
	}
	clear(s.off)
	if cap(s.dst) < m {
		s.dst = make([]int32, 0, m)
	} else {
		s.dst = s.dst[:0]
	}
	if cap(s.reason) < m {
		s.reason = make([]uint32, 0, m)
	} else {
		s.reason = s.reason[:0]
	}
	prevFrom, prevTo := int32(-1), int32(-1)
	for _, i := range idx {
		f, t := s.bFrom[i], s.bTo[i]
		if f == prevFrom && t == prevTo {
			continue // duplicate; first reason already kept
		}
		prevFrom, prevTo = f, t
		s.dst = append(s.dst, t)
		s.reason = append(s.reason, s.bReason[i])
		s.off[f+1]++
	}
	for v := 0; v < s.n; v++ {
		s.off[v+1] += s.off[v]
	}
	// Truncate rather than drop the build arrays: a reset skeleton
	// refills them on its next use.
	s.bFrom, s.bTo, s.bReason = s.bFrom[:0], s.bTo[:0], s.bReason[:0]
}

// Rows returns the frozen CSR rows of nodes [lo, hi): node lo+i's
// successors are dst[off[i]-off[0]:off[i+1]-off[0]], deduplicated and
// sorted by target, with their reasons at the same positions in reason.
// The slices alias the skeleton: copy them before it is reset.
func (s *Skeleton) Rows(lo, hi int) (off, dst []int32, reason []uint32) {
	off = s.off[lo : hi+1]
	a, b := off[0], off[hi-lo]
	return off, s.dst[a:b], s.reason[a:b]
}

// BeginRows empties the skeleton and sizes it to n nodes, for AppendRows
// to fill with frozen rows in node order in place of AddEdge and Freeze.
func (s *Skeleton) BeginRows(n int) {
	s.Reset(n)
	s.off = append(s.off, 0)
	s.frozen = n == 0
}

// AppendRows appends rows in Rows' form as the rows of the next
// len(off)-1 nodes, every target shifted by shift. The skeleton is frozen
// once its rows cover all of its nodes. Rows already deduplicated and
// sorted by target stay so under a shift, so no Freeze is needed.
func (s *Skeleton) AppendRows(off, dst []int32, reason []uint32, shift int32) {
	if len(s.off)+len(off)-2 > s.n {
		panic(fmt.Sprintf("uhb: AppendRows past the skeleton's %d nodes", s.n))
	}
	base, n, m := s.off[len(s.off)-1]-off[0], len(s.off), len(s.dst)
	s.off = append(s.off, off[1:]...)
	for i := n; i < len(s.off); i++ {
		s.off[i] += base
	}
	s.dst = append(s.dst, dst...)
	for i := m; i < len(s.dst); i++ {
		s.dst[i] += shift
	}
	s.reason = append(s.reason, reason...)
	s.frozen = len(s.off) == s.n+1
}

// HasEdge reports whether the static edge exists (valid after Freeze).
func (s *Skeleton) HasEdge(from, to int) bool {
	_, ok := s.findEdge(from, to)
	return ok
}

// Reason returns the reason code of a static edge and whether it exists
// (valid after Freeze).
func (s *Skeleton) Reason(from, to int) (uint32, bool) {
	return s.findEdge(from, to)
}

func (s *Skeleton) findEdge(from, to int) (uint32, bool) {
	if !s.frozen || from < 0 || from >= s.n {
		return 0, false
	}
	lo, hi := int(s.off[from]), int(s.off[from+1])
	row := s.dst[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(to) })
	if i < len(row) && row[i] == int32(to) {
		return s.reason[lo+i], true
	}
	return 0, false
}

// ForEachEdge visits every static edge in (from, to) order with its
// reason code (valid after Freeze).
func (s *Skeleton) ForEachEdge(fn func(from, to int, reason uint32)) {
	for v := 0; v < s.n; v++ {
		for i := s.off[v]; i < s.off[v+1]; i++ {
			fn(v, int(s.dst[i]), s.reason[i])
		}
	}
}

// TopoOrder returns the nodes in a topological order of the static
// edges, or nil if they are cyclic (valid after Freeze). It is Kahn's
// pass: a FIFO queue started from the sources in node order, successors
// released in target order. Diagnostics lay a witness timeline out along
// it, and a Closure sorts a skeleton whose edges do not all run forward
// with it.
func (s *Skeleton) TopoOrder() []int32 {
	indeg := make([]int32, s.n)
	for _, w := range s.dst {
		indeg[w]++
	}
	queue := make([]int32, 0, s.n)
	for v := 0; v < s.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for i := s.off[v]; i < s.off[v+1]; i++ {
			w := s.dst[i]
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(queue) < s.n {
		return nil
	}
	return queue
}
