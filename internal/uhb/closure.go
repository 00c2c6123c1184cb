package uhb

import (
	"fmt"
	"math/bits"
)

// Closure decides whether a skeleton plus one candidate execution's
// dynamic edges has a cycle, without building the candidate's graph.
//
// A port is a node that a dynamic edge may touch. Attach computes, once
// per skeleton, each port's reach: the ports it reaches along static
// edges, itself included (the empty path). A candidate's dynamic edges
// then induce a graph on ports, with p → q whenever a dynamic edge p → r
// has q in reach(r), and the candidate is cyclic exactly when that port
// graph is, or the skeleton already is:
//
//   - If the skeleton is cyclic, so is every candidate.
//   - Otherwise every cycle of skeleton + dynamic edges uses at least one
//     dynamic edge. Cut it at its dynamic edges d1 … dk. Between the
//     target of d(i) and the source of d(i+1), both ports, the cycle
//     follows a static path, possibly empty, which reach holds as one
//     bit. So the sources of d1 … dk form a cycle of the port graph.
//   - Conversely, each port-graph edge p → q expands into a dynamic edge
//     p → r and a static path from r to q. A port-graph cycle therefore
//     expands into a closed walk of skeleton + dynamic edges, and a
//     closed walk contains a cycle.
//
// Only ports with a dynamic edge out can lie on a port-graph cycle, so
// the search runs over those few: a DFS whose rows are one uint64 when a
// skeleton has at most 64 ports, and multiword otherwise.
//
// A Closure also logs the candidate's edges in the order AddEdge saw
// them, for a caller that wants the witnessing cycle of a cyclic
// candidate: replaying the log into an Overlay reproduces the overlay an
// emitter would have filled directly. A Closure is not safe for
// concurrent use; Attach reuses its buffers across skeletons.
type Closure struct {
	cyclic bool     // the skeleton alone is cyclic
	words  int      // uint64 words per port bitset row
	port   []int32  // node → port index, or -1 for a node that is not a port
	reach  []uint64 // row p: the ports port p reaches along static edges

	// The current candidate: dyn row p holds the targets of port p's
	// dynamic edges, src the ports with a dynamic edge out, and log every
	// edge in the order it was added.
	dyn []uint64
	src []uint64
	log []dynEdge

	rows []uint64 // Attach scratch: each node's reach row
	// Search scratch: the DFS stack of ports, each frame's successors not
	// yet explored, and the ports on the stack (gray) or done (black).
	stack       []int32
	pend        []uint64
	gray, black []uint64
}

type dynEdge struct {
	from, to int32
	reason   uint32
}

// Attach computes the port closure of a frozen skeleton and discards any
// candidate, keeping buffer capacity. ports lists the nodes a dynamic
// edge may touch, each once.
func (c *Closure) Attach(s *Skeleton, ports []int32) {
	c.bind(s, ports)
	n, w := s.n, c.words
	c.rows = grow(c.rows, n*w)
	c.cyclic = !c.closeRows(s)
	if c.cyclic {
		return
	}
	for p, v := range ports {
		copy(c.reach[p*w:p*w+w], c.rows[int(v)*w:int(v)*w+w])
	}
}

// AttachReach is Attach for an acyclic skeleton of at most 64 ports
// whose port closure the caller already holds: reach[p] is port p's row.
// It runs no closure pass.
func (c *Closure) AttachReach(s *Skeleton, ports []int32, reach []uint64) {
	if len(ports) > 64 || len(reach) != len(ports) {
		panic(fmt.Sprintf("uhb: AttachReach with %d ports and %d reach rows", len(ports), len(reach)))
	}
	c.bind(s, ports)
	c.cyclic = false
	copy(c.reach, reach)
}

// Reach returns port p's row in a closure of at most 64 ports: the ports
// p reaches along static edges, itself included.
func (c *Closure) Reach(p int) uint64 {
	if c.words != 1 {
		panic("uhb: Closure.Reach on a multiword closure")
	}
	return c.reach[p]
}

// bind sizes the closure's buffers for skeleton s and its ports, maps
// each node to its port index, and discards any candidate. It leaves the
// reach rows to the caller.
func (c *Closure) bind(s *Skeleton, ports []int32) {
	if !s.frozen {
		panic("uhb: Closure.Attach on unfrozen Skeleton")
	}
	n, np := s.n, len(ports)
	w := max(1, (np+63)/64)
	c.words = w
	c.port = grow(c.port, n)
	for i := range c.port {
		c.port[i] = -1
	}
	for i, v := range ports {
		c.port[v] = int32(i)
	}
	c.reach = grow(c.reach, np*w)
	c.dyn = grow(c.dyn, np*w)
	c.src = grow(c.src, w)
	c.Reset()
	c.stack = grow(c.stack, np)
	c.pend = grow(c.pend, np*w)
	c.gray = grow(c.gray, w)
	c.black = grow(c.black, w)
}

// closeRows fills each node's row with the ports it reaches, visiting
// nodes in reverse topological order so that every successor's row is
// final before it is read. It reports false if the skeleton is cyclic.
func (c *Closure) closeRows(s *Skeleton) bool {
	n, w := s.n, c.words
	// A skeleton whose static edges all run to a higher node, as the µspec
	// builder's do, is its own topological order. Any other is sorted by
	// Kahn's pass.
	var ord []int32
	for v := 0; v < n && ord == nil; v++ {
		if s.off[v] < s.off[v+1] && s.dst[s.off[v]] <= int32(v) {
			if ord = s.TopoOrder(); ord == nil {
				return false
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := int32(i)
		if ord != nil {
			v = ord[i]
		}
		succ := s.dst[s.off[v]:s.off[v+1]]
		if w == 1 {
			var r uint64
			if p := c.port[v]; p >= 0 {
				r = 1 << p
			}
			for _, d := range succ {
				r |= c.rows[d]
			}
			c.rows[v] = r
			continue
		}
		row := c.rows[int(v)*w : int(v)*w+w]
		clear(row)
		if p := c.port[v]; p >= 0 {
			row[p>>6] |= 1 << (p & 63)
		}
		for _, d := range succ {
			for k, x := range c.rows[int(d)*w : int(d)*w+w] {
				row[k] |= x
			}
		}
	}
	return true
}

// grow returns buf resliced to length n, reallocated if its capacity is
// short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Reset discards the candidate's dynamic edges.
func (c *Closure) Reset() {
	clear(c.dyn)
	clear(c.src)
	c.log = c.log[:0]
}

// AddEdge records a dynamic edge of the candidate with an opaque reason
// code. It panics if either endpoint is not a port: the port set is
// derived from the node layout that emits the edges, so such an edge is
// an emitter bug.
func (c *Closure) AddEdge(from, to int, reason uint32) {
	p, q := c.port[from], c.port[to]
	if p < 0 || q < 0 {
		panic(fmt.Sprintf("uhb: dynamic edge %d->%d (reason %d) touches a node that is not a port", from, to, reason))
	}
	c.dyn[int(p)*c.words+int(q>>6)] |= 1 << (q & 63)
	c.src[p>>6] |= 1 << (p & 63)
	c.log = append(c.log, dynEdge{int32(from), int32(to), reason})
}

// ForEachEdge visits the candidate's dynamic edges in the order AddEdge
// recorded them.
func (c *Closure) ForEachEdge(fn func(from, to int, reason uint32)) {
	for _, e := range c.log {
		fn(int(e.from), int(e.to), e.reason)
	}
}

// HasCycle reports whether the skeleton plus the candidate's dynamic
// edges contains a directed cycle. It allocates nothing.
func (c *Closure) HasCycle() bool {
	switch {
	case c.cyclic:
		return true
	case c.words == 1:
		return c.cycle1()
	default:
		return c.cycleN()
	}
}

// cycle1 is the port-graph DFS of a closure whose rows are one word.
func (c *Closure) cycle1() bool {
	active := c.src[0]
	var gray, black uint64
	for todo := active; todo != 0; todo = active &^ black {
		p := bits.TrailingZeros64(todo)
		gray |= 1 << p
		c.stack[0], c.pend[0] = int32(p), c.succ1(p)&active
		for sp := 1; sp > 0; {
			f := sp - 1
			next := c.pend[f] &^ black
			if next == 0 {
				black |= 1 << c.stack[f]
				gray &^= 1 << c.stack[f]
				sp--
				continue
			}
			q := bits.TrailingZeros64(next)
			c.pend[f] = next & (next - 1)
			if gray&(1<<q) != 0 {
				return true
			}
			gray |= 1 << q
			c.stack[sp], c.pend[sp] = int32(q), c.succ1(q)&active
			sp++
		}
	}
	return false
}

// succ1 returns port p's port-graph successors in a one-word closure.
func (c *Closure) succ1(p int) uint64 {
	var s uint64
	for r := c.dyn[p]; r != 0; r &= r - 1 {
		s |= c.reach[bits.TrailingZeros64(r)]
	}
	return s
}

// cycleN is cycle1 over multiword rows.
func (c *Closure) cycleN() bool {
	clear(c.gray)
	clear(c.black)
	for k := range c.src {
		for {
			todo := c.src[k] &^ c.black[k]
			if todo == 0 {
				break
			}
			if c.searchN(k*64 + bits.TrailingZeros64(todo)) {
				return true
			}
		}
	}
	return false
}

// searchN runs cycleN's DFS from one root.
func (c *Closure) searchN(root int) bool {
	w := c.words
	c.pushN(0, root)
	for sp := 1; sp > 0; {
		f := sp - 1
		pend := c.pend[f*w : f*w+w]
		q := -1
		for k := range pend {
			if next := pend[k] &^ c.black[k]; next != 0 {
				q = k*64 + bits.TrailingZeros64(next)
				pend[k] = next & (next - 1)
				break
			}
			pend[k] = 0
		}
		if q < 0 {
			p := c.stack[f]
			c.black[p>>6] |= 1 << (p & 63)
			c.gray[p>>6] &^= 1 << (p & 63)
			sp--
			continue
		}
		if c.gray[q>>6]&(1<<(q&63)) != 0 {
			return true
		}
		c.pushN(sp, q)
		sp++
	}
	return false
}

// pushN puts port p on the search stack as frame f, with its port-graph
// successors among the ports that have a dynamic edge out.
func (c *Closure) pushN(f, p int) {
	w := c.words
	c.gray[p>>6] |= 1 << (p & 63)
	c.stack[f] = int32(p)
	pend := c.pend[f*w : f*w+w]
	clear(pend)
	for k, r := range c.dyn[p*w : p*w+w] {
		for ; r != 0; r &= r - 1 {
			t := k*64 + bits.TrailingZeros64(r)
			for j, x := range c.reach[t*w : t*w+w] {
				pend[j] |= x
			}
		}
	}
	for j := range pend {
		pend[j] &= c.src[j]
	}
}
