package uspec

import (
	"fmt"
	"strings"

	"tricheck/internal/uhb"
)

// Graph is the µhb graph of one execution candidate, materialized for
// diagnostics (Explain, witnesses, DOT): every static and dynamic edge
// in one frozen skeleton, plus the node layout that names its nodes.
// Node labels and edge reasons are rendered only when asked for.
type Graph struct {
	s *uhb.Skeleton
	b *builder // node layout only: events, slots per instruction, visibility
}

// slotNames names the fixed per-instruction node slots.
var slotNames = [...]string{
	slotFetch:   "Fetch",
	slotExec:    "Execute",
	slotPerform: "Perform",
	slotSBEnter: "SBEnter",
	slotGetM:    "GetM",
}

// Label renders a node's diagnostic name, "T<thread>.i<index>.<slot>".
// Visibility slots a write does not use, and every visibility slot of a
// non-write, have no edges and render as "n<node>".
func (g *Graph) Label(node int) string {
	diagFormats.Add(1)
	b := g.b
	e := b.ev[node/b.K]
	base := fmt.Sprintf("T%d.i%d", e.Thread, e.Index)
	switch slot := node % b.K; {
	case slot < slotVis0:
		return base + "." + slotNames[slot]
	case slot == b.K-1:
		return base + ".Complete"
	case !e.IsWrite() || slot-slotVis0 >= b.numVis(e.GID):
		return fmt.Sprintf("n%d", node)
	case b.atomicWrite(e.GID):
		return base + ".VisibleAll"
	default:
		return fmt.Sprintf("%s.Visible@C%d", base, slot-slotVis0)
	}
}

// reason renders the axiom that demanded edge (from, to): the first one
// recorded for it.
func (g *Graph) reason(from, to int) string {
	r, _ := g.s.Reason(from, to)
	return Reason(r).String()
}

// FindCycle returns the nodes of a directed cycle (c[0] → … → c[len-1] →
// c[0]), or nil if the graph is acyclic. Successors are searched in node
// order, so the cycle depends only on the edge set.
func (g *Graph) FindCycle() []int { return uhb.NewOverlay(g.s).FindCycle() }

// Acyclic reports whether the graph has no cycle: the execution is
// observable.
func (g *Graph) Acyclic() bool { return !uhb.NewOverlay(g.s).HasCycle() }

// ExplainCycle renders a cycle (as returned by FindCycle) with node labels
// and per-edge reasons — the counterexample explanation a designer reads.
func (g *Graph) ExplainCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "acyclic"
	}
	var sb strings.Builder
	for i, v := range cycle {
		fmt.Fprintf(&sb, "%s --[%s]--> ", g.Label(v), g.reason(v, cycle[(i+1)%len(cycle)]))
	}
	sb.WriteString(g.Label(cycle[0]))
	return sb.String()
}

// Timeline returns the labels of the graph's performs, GetMs and
// visibility points in one topological order — the witness timeline of
// an observable execution — or nil if the graph is cyclic. Nodes no edge
// touches are left out.
func (g *Graph) Timeline() []string {
	order := g.s.TopoOrder()
	if order == nil {
		return nil
	}
	touched := make([]bool, g.s.NumNodes())
	g.s.ForEachEdge(func(from, to int, _ uint32) {
		touched[from], touched[to] = true, true
	})
	var out []string
	for _, v := range order {
		slot := int(v) % g.b.K
		if touched[v] && (slot == slotPerform || slot == slotGetM || slot >= slotVis0 && slot < g.b.K-1) {
			out = append(out, g.Label(int(v)))
		}
	}
	return out
}

// DOT renders the graph in Graphviz format, one edge per line in (from,
// to) order with its reason as edge label. Nodes without edges are
// omitted.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	g.s.ForEachEdge(func(from, to int, r uint32) {
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", g.Label(from), g.Label(to), Reason(r).String())
	})
	sb.WriteString("}\n")
	return sb.String()
}
