package uhb

import (
	"fmt"
	"math/bits"
)

// Closure decides whether a skeleton plus one candidate execution's
// dynamic edges has a cycle, without building the candidate's graph.
//
// A port is a node that a dynamic edge may touch. Attach takes a
// skeleton of at most 64 ports whose every edge runs to a higher node,
// as the µspec builder's do, and computes, once, each port's reach: the
// ports it reaches along static edges, itself included (the empty path).
// A candidate's dynamic edges then induce a graph on ports, with p → q
// whenever a dynamic edge p → r has q in reach(r), and the candidate is
// cyclic exactly when that port graph is:
//
//   - The skeleton is acyclic, so every cycle of skeleton + dynamic edges
//     uses at least one dynamic edge. Cut it at its dynamic edges d1 … dk.
//     Between the target of d(i) and the source of d(i+1), both ports, the
//     cycle follows a static path, possibly empty, which reach holds as
//     one bit. So the sources of d1 … dk form a cycle of the port graph.
//   - Conversely, each port-graph edge p → q expands into a dynamic edge
//     p → r and a static path from r to q. A port-graph cycle therefore
//     expands into a closed walk of skeleton + dynamic edges, and a
//     closed walk contains a cycle.
//
// Only ports with a dynamic edge out can lie on a port-graph cycle, so
// the search is a DFS over those few, on one-word rows.
//
// A Closure also logs the candidate's edges in the order AddEdge saw
// them, for a caller that wants the witnessing cycle of a cyclic
// candidate: replaying the log into an Overlay reproduces the overlay an
// emitter would have filled directly. A closure that Attach did not take
// only logs: its HasCycle cannot rule a cycle out, and the overlay
// decides. A Closure is not safe for concurrent use; Attach reuses its
// buffers across skeletons.
type Closure struct {
	taken bool     // Attach took the skeleton: reach holds its port closure
	port  []int32  // node → port index, or -1 for a node that is not a port
	reach []uint64 // row p: the ports port p reaches along static edges

	// The current candidate: dyn row p holds the targets of port p's
	// dynamic edges, src the ports with a dynamic edge out, and log every
	// edge in the order it was added. An untaken closure's rows mean
	// nothing.
	dyn []uint64
	src uint64
	log []dynEdge

	rows []uint64 // Attach scratch: each node's reach row
	// Search scratch: the DFS stack of ports and each frame's successors
	// not yet explored.
	stack []int32
	pend  []uint64
}

type dynEdge struct {
	from, to int32
	reason   uint32
}

// Attach computes the port closure of a frozen skeleton and discards any
// candidate, keeping buffer capacity. ports lists the nodes a dynamic
// edge may touch, each once. It reports whether it took the skeleton:
// false when there are more than 64 ports or some edge does not run to a
// higher node.
func (c *Closure) Attach(s *Skeleton, ports []int32) bool {
	c.bind(s, ports)
	c.taken = len(ports) <= 64 && c.closeRows(s)
	if c.taken {
		for p, v := range ports {
			c.reach[p] = c.rows[v]
		}
	}
	return c.taken
}

// AttachReach is Attach for a skeleton it would take whose port closure
// the caller already holds: reach[p] is port p's row. It runs no closure
// pass.
func (c *Closure) AttachReach(s *Skeleton, ports []int32, reach []uint64) {
	if len(ports) > 64 || len(reach) != len(ports) {
		panic(fmt.Sprintf("uhb: AttachReach with %d ports and %d reach rows", len(ports), len(reach)))
	}
	c.bind(s, ports)
	c.taken = true
	copy(c.reach, reach)
}

// Reach returns port p's row in a closure Attach took: the ports p
// reaches along static edges, itself included.
func (c *Closure) Reach(p int) uint64 { return c.reach[p] }

// bind sizes the closure's buffers for skeleton s and its ports, maps
// each node to its port index, and discards any candidate. It leaves the
// reach rows to the caller.
func (c *Closure) bind(s *Skeleton, ports []int32) {
	if !s.frozen {
		panic("uhb: Closure.Attach on unfrozen Skeleton")
	}
	np := len(ports)
	c.port = grow(c.port, s.n)
	for i := range c.port {
		c.port[i] = -1
	}
	for i, v := range ports {
		c.port[v] = int32(i)
	}
	c.reach = grow(c.reach, np)
	c.dyn = grow(c.dyn, np)
	c.Reset()
	c.stack = grow(c.stack, np)
	c.pend = grow(c.pend, np)
}

// closeRows fills each node's row with the ports it reaches, from the
// highest node down, so that every successor's row is final before it
// is read. It reports false, leaving the rows unspecified, at the first
// edge that does not run to a higher node.
func (c *Closure) closeRows(s *Skeleton) bool {
	c.rows = grow(c.rows, s.n)
	for v := s.n - 1; v >= 0; v-- {
		var r uint64
		if p := c.port[v]; p >= 0 {
			r = 1 << p
		}
		for _, d := range s.dst[s.off[v]:s.off[v+1]] {
			if int(d) <= v {
				return false
			}
			r |= c.rows[d]
		}
		c.rows[v] = r
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
	c.src = 0
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
	c.dyn[p] |= 1 << (q & 63)
	c.src |= 1 << (p & 63)
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
// edges contains a directed cycle. A closure Attach did not take reports
// true: it cannot rule a cycle out. It allocates nothing.
func (c *Closure) HasCycle() bool {
	if !c.taken {
		return true
	}
	active := c.src
	var gray, black uint64
	for todo := active; todo != 0; todo = active &^ black {
		p := bits.TrailingZeros64(todo)
		gray |= 1 << p
		c.stack[0], c.pend[0] = int32(p), c.succ(p)&active
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
			c.stack[sp], c.pend[sp] = int32(q), c.succ(q)&active
			sp++
		}
	}
	return false
}

// succ returns port p's port-graph successors.
func (c *Closure) succ(p int) uint64 {
	var s uint64
	for r := c.dyn[p]; r != 0; r &= r - 1 {
		s |= c.reach[bits.TrailingZeros64(r)]
	}
	return s
}
