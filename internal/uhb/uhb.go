// Package uhb implements microarchitectural happens-before (µhb) graphs,
// the decision structure of the PipeCheck/Check family of tools that
// TriCheck builds on. Nodes are (instruction, location) pairs — a location
// being a pipeline stage or a store-visibility point — and labelled edges
// are ordering obligations contributed by µspec axioms. An execution
// candidate is observable on a microarchitecture exactly when its µhb graph
// is acyclic; a cycle is a proof that the candidate cannot happen.
//
// A graph has two tiers: a frozen Skeleton holds the static edges, and
// one execution's dynamic edges layer on top of it. A Closure decides each
// candidate from the ports its dynamic edges touch and what each port
// reaches along static edges; an Overlay holds the dynamic edges of a
// candidate the closure finds cyclic, or cannot decide, and its DFS
// decides it and names the witnessing cycle. Edges carry
// opaque reason codes, which callers resolve to strings only for
// diagnostics.
package uhb
