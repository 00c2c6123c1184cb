// Package uhb implements microarchitectural happens-before (µhb) graphs,
// the decision structure of the PipeCheck/Check family of tools that
// TriCheck builds on. Nodes are (instruction, location) pairs — a location
// being a pipeline stage or a store-visibility point — and labelled edges
// are ordering obligations contributed by µspec axioms. An execution
// candidate is observable on a microarchitecture exactly when its µhb graph
// is acyclic; a cycle is a proof that the candidate cannot happen.
//
// A graph has two tiers: a frozen Skeleton holds the static edges and an
// Overlay layers one execution's dynamic edges on top of it; Incr keeps a
// topological order of the two across a sweep. Edges carry opaque reason
// codes, which callers resolve to strings only for diagnostics.
package uhb
