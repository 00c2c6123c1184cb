package opsim

import (
	"fmt"
	"slices"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// search is the depth-first search every operational machine shares. A
// machine embeds it and supplies one explore function over its own
// state type, which enumerates the state's transitions:
//
//   - it passes the state's key to visit and stops at a seen state;
//   - unless full is set, it looks for one enabled transition that is
//     independent of every transition that can run before it, and if
//     it finds one, explores that successor alone;
//   - otherwise it explores each successor, and when that reached the
//     target, it records the action taken (record) and returns true at
//     once;
//   - a state with no successor is quiescent and ends in quiescent.
//
// The second step is a partial-order reduction: the chosen transition
// is a persistent set of one (Godefroid, Partial-Order Methods for the
// Verification of Concurrent Systems, LNCS 1032, 1996). No transition
// that runs before it can disable it or observe it, so any path from
// the state to a quiescent state can take it first and end in the same
// state, up to the order in which nWR numbers its drained writes, and
// no outcome is lost. Every transition makes progress (a pc advances, a
// buffer drains, a write applies or an atomic commits), so the state
// graph is acyclic and the search needs no cycle proviso. Each machine
// argues its rules next to them.
//
// Outcomes runs the reduced search to collect the outcome of every
// quiescent state. Trace runs the full search and stops at the first
// quiescent state whose outcome is its target; the witness is recorded
// as the search unwinds from there, so only the found path formats
// labels.
type search struct {
	p    *isa.Program
	root func() bool          // explores from the machine's initial state
	out  map[mem.Outcome]bool // nil until Outcomes has explored
	key  []byte               // the machine's appendKey buffer, reused for every lookup
	seen *visitedSet          // the running search's visited states
	// States counts distinct configurations Outcomes explored.
	States int

	full    bool        // explore every transition of every state: Trace, and the reduction's test
	tracing bool        // Trace is running
	target  mem.Outcome // Trace's target
	path    []string    // Trace's witness, last action first
}

// Outcomes explores the interleavings, reduced as search describes, and
// returns the set of reachable final states (register observers plus
// final memory observers, in the same canonical form as the axiomatic
// side). Later calls return the same set without exploring again.
func (s *search) Outcomes() map[mem.Outcome]bool {
	if s.out == nil {
		s.out = map[mem.Outcome]bool{}
		s.run()
	}
	return s.out
}

// Trace searches for an interleaving reaching the target outcome and
// returns it as a list of human-readable actions, or nil if unreachable.
// It runs the full search, so its witness does not depend on the
// reduction. It explores with a visited set of its own and leaves
// StateCount and Outcomes' set as they were, so call it before or after
// Outcomes freely.
func (s *search) Trace(target mem.Outcome) []string {
	states, full := s.States, s.full
	s.tracing, s.full, s.target, s.path = true, true, target, nil
	found := s.run()
	s.tracing, s.full, s.States = false, full, states
	if !found {
		return nil
	}
	slices.Reverse(s.path)
	return s.path
}

// StateCount reports distinct configurations Outcomes explored.
func (s *search) StateCount() int { return s.States }

// run explores from the initial state with a borrowed visited set and
// reports whether the search reached Trace's target.
func (s *search) run() bool {
	s.seen = getVisited()
	found := s.root()
	putVisited(s.seen)
	s.seen = nil
	return found
}

// visit reports whether the state the machine keyed into key is new to
// the running search, and marks it seen. key is the machine's appendKey
// onto s.key[:0]; keeping it keeps the buffer's capacity.
func (s *search) visit(key []byte) bool {
	s.key = key
	if !s.seen.insert(key) {
		return false
	}
	s.States++
	return true
}

// quiescent ends the search at a state with no successor, whose
// registers and final memory reg and final read: Outcomes adds its
// outcome to the set, and Trace reports whether it is the target.
func (s *search) quiescent(reg func(t, r int) int64, final func(mem.Loc) int64) bool {
	o := s.p.Mem().RenderOutcome(reg, final)
	if s.tracing {
		return o == s.target
	}
	s.out[o] = true
	return false
}

// record adds one action to Trace's witness and returns true, so the
// search keeps unwinding. It unwinds from the target, so the last action
// comes first.
func (s *search) record(format string, args ...any) bool {
	s.path = append(s.path, fmt.Sprintf(format, args...))
	return true
}
