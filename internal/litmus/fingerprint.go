package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"tricheck/internal/c11"
	"tricheck/internal/mem"
)

// This file implements canonical test fingerprints: a content hash of a
// test's program that is independent of every piece of surface syntax —
// test and shape names, location names, register numbering, thread
// ordering, location numbering, and whether the test was built in Go or
// parsed from a herd .litmus file. Two tests with the same fingerprint
// have identical semantics at every layer of the toolflow (same candidate
// executions, same outcome namespace), so the verification farm can
// deduplicate and memoize (test, stack) jobs by fingerprint, and a corpus
// round trip through the herd emitter and parser leaves the fingerprint
// unchanged.
//
// What IS part of the fingerprint:
//   - the thread structure and per-thread operation sequences (but not
//     which dense thread id a thread carries: thread blocks are sorted),
//   - each operation's kind, memory order, and RMW function,
//   - address/data operands with locations canonicalized (the hash is
//     minimized over location renumberings, so renumbering the shared
//     variables does not change it) and registers renumbered per thread
//     in definition order,
//   - control-dependency edges (as per-thread op indices),
//   - observers and their outcome labels (they define the outcome
//     namespace, so results keyed by them are only shareable when the
//     labels agree).
//
// What is NOT part of the fingerprint: the test name, the shape name, the
// location display names, the concrete register numbers, the order in
// which threads and locations happen to be numbered, and the designated
// "interesting" outcome (everything derived from it is recomputed when a
// memoized result is rebound to a test).
//
// The STRUCTURAL fingerprint additionally anonymizes observer labels
// and canonicalizes written constants (renumbered by order of
// appearance, so writing {1,2} or {2,1} to a location is the same
// skeleton): it identifies tests that are the same program modulo
// outcome naming and value numbering. Two tests with equal structural
// fingerprints describe the same cycle skeleton — the synthesizer uses
// it to collapse duplicate shapes and to decide whether a synthesized
// shape is genuinely novel — but their results are NOT interchangeable
// (the outcome strings differ), so the memo cache must keep using the
// full fingerprint.

// maxCanonLocs bounds the location-permutation search: up to this many
// locations the canonical form is the exact minimum over all location
// renumberings; beyond it (no shipped or synthesized test comes close)
// the identity numbering is used, which is still deterministic.
const maxCanonLocs = 5

// maxCanonThreads bounds the thread-permutation search of the
// STRUCTURAL fingerprint. Value renumbering depends on the order thread
// blocks are visited, so the exact canonical form minimizes over block
// orders; beyond this many threads the blocks are sorted on their raw
// rendering instead (deterministic, but value-renamed duplicates of
// such oversized programs may not collapse).
const maxCanonThreads = 6

// Fingerprint returns the canonical content hash of the test's program.
// The hash is a 64-bit-collision-safe 128-bit hex string (the first 16
// bytes of a SHA-256). It is computed once per test: a cold sweep asks
// for it once per (test, stack) job, so caching saves tens of
// thousands of canonicalization passes per paper sweep.
func (t *Test) Fingerprint() string {
	t.fpOnce.Do(func() { t.fp = FingerprintProgram(t.Prog) })
	return t.fp
}

// FingerprintProgram computes the canonical fingerprint of a C11 program.
func FingerprintProgram(p *c11.Program) string {
	return hashCanonical(canonicalString(p, false))
}

// StructuralFingerprintProgram computes the label-anonymized canonical
// fingerprint: equal for two programs that coincide modulo thread order,
// location numbering, register numbering and observer-label naming. Use
// it for shape-level dedup (is this the same litmus skeleton?), never
// for result memoization.
func StructuralFingerprintProgram(p *c11.Program) string {
	return hashCanonical(canonicalString(p, true))
}

// StructuralFingerprint returns the label-anonymized fingerprint of the
// test's program (see StructuralFingerprintProgram).
func (t *Test) StructuralFingerprint() string {
	return StructuralFingerprintProgram(t.Prog)
}

func hashCanonical(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// canonicalString renders the program minimally over every location
// renumbering (exact up to maxCanonLocs locations) with thread blocks
// sorted, so the result is invariant under thread permutation and
// location renaming/renumbering. With anonLabels set, observer labels
// are dropped from the rendering.
func canonicalString(p *c11.Program, anonLabels bool) string {
	nlocs := p.Mem().NumLocs
	best := ""
	have := false
	permutations(nlocs, maxCanonLocs, func(sigma []int) {
		s := renderProgram(p, sigma, anonLabels)
		if !have || s < best {
			best, have = s, true
		}
	})
	return best
}

// permutations calls fn with every permutation of [0,n) when n <= limit,
// or just the identity otherwise (Heap's algorithm, iterative; the slice
// is reused across calls).
func permutations(n, limit int, fn func([]int)) {
	sigma := make([]int, n)
	for i := range sigma {
		sigma[i] = i
	}
	fn(sigma)
	if n > limit {
		return
	}
	c := make([]int, n)
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				sigma[0], sigma[i] = sigma[i], sigma[0]
			} else {
				sigma[c[i]], sigma[i] = sigma[i], sigma[c[i]]
			}
			fn(sigma)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// renderProgram renders the canonical string for one location
// renumbering: per-thread blocks (ops with thread-local canonical
// registers, then the thread's observers) followed by the memory
// observers. The full fingerprint sorts the blocks (value-exact
// renderings sort identically for thread-permuted programs); the
// structural fingerprint instead minimizes over block orders with the
// value renumbering applied per candidate, so value-renamed duplicates
// collapse no matter how the renaming reorders the raw renderings.
func renderProgram(p *c11.Program, sigma []int, anonLabels bool) string {
	blocks := renderBlocks(p, sigma, anonLabels)
	prefix := "locs=" + strconv.Itoa(p.Mem().NumLocs) + ";"
	memObs := renderMemObs(p, sigma, anonLabels)
	if !anonLabels || len(blocks) > maxCanonThreads {
		sorted := append([]string(nil), blocks...)
		sort.Strings(sorted)
		s := assembleRendering(prefix, sorted, memObs)
		if anonLabels {
			s = canonValues(s)
		}
		return s
	}
	best := ""
	have := false
	ordered := make([]string, len(blocks))
	permutations(len(blocks), maxCanonThreads, func(pi []int) {
		for i, bi := range pi {
			ordered[i] = blocks[bi]
		}
		s := canonValues(assembleRendering(prefix, ordered, memObs))
		if !have || s < best {
			best, have = s, true
		}
	})
	return best
}

func assembleRendering(prefix string, blocks []string, memObs string) string {
	n := len(prefix) + len(memObs)
	for _, blk := range blocks {
		n += len(blk) + 4
	}
	out := make([]byte, 0, n)
	out = append(out, prefix...)
	for i, blk := range blocks {
		out = append(out, 'T')
		out = strconv.AppendInt(out, int64(i), 10)
		out = append(out, ':')
		out = append(out, blk...)
	}
	out = append(out, memObs...)
	return string(out)
}

// renderBlocks renders each thread's operations and observers. The
// rendering is hot — a cold sweep fingerprints every job's test, and the
// canonical form re-renders per location permutation — so each block is
// assembled by direct byte appends instead of fmt.
func renderBlocks(p *c11.Program, sigma []int, anonLabels bool) []string {
	mp := p.Mem()
	blocks := make([]string, 0, len(p.Ops))
	var b []byte
	var depsBuf []int
	// Registers renumber per thread in definition order, so the
	// builder's global numbering and a parser's local numbering
	// fingerprint identically. The map is reused (cleared) per thread —
	// canonicalization re-renders per location permutation, and a fresh
	// map per thread per permutation dominated fingerprint allocations.
	canon := make(map[int]int, 8)
	for th, ops := range p.Ops {
		b = b[:0]
		clear(canon)
		reg := func(r int) int {
			c, ok := canon[r]
			if !ok {
				c = len(canon)
				canon[r] = c
			}
			return c
		}
		operand := func(o mem.Operand, isLoc bool) {
			if o.Kind == mem.OpReg {
				b = append(b, 'r')
				b = strconv.AppendInt(b, int64(reg(o.Reg)), 10)
				return
			}
			if isLoc {
				c := o.Const
				if c >= 0 && int(c) < len(sigma) {
					c = int64(sigma[c])
				}
				b = append(b, '#')
				b = strconv.AppendInt(b, c, 10)
				return
			}
			// Data constants use a distinct marker so the structural
			// canonicalization can renumber them without touching
			// location ids.
			b = append(b, '$')
			b = strconv.AppendInt(b, o.Const, 10)
		}
		for _, op := range ops {
			switch op.Kind {
			case c11.OpLoad:
				b = append(b, "ld,"...)
				b = append(b, op.Ord.String()...)
				b = append(b, ',')
				operand(op.Addr, true)
				b = append(b, ",r"...)
				b = strconv.AppendInt(b, int64(reg(op.Dst)), 10)
			case c11.OpStore:
				b = append(b, "st,"...)
				b = append(b, op.Ord.String()...)
				b = append(b, ',')
				operand(op.Addr, true)
				b = append(b, ',')
				operand(op.Data, false)
			case c11.OpRMW:
				b = append(b, "rmw"...)
				b = strconv.AppendInt(b, int64(op.RMWOp), 10)
				b = append(b, ',')
				b = append(b, op.Ord.String()...)
				b = append(b, ',')
				operand(op.Addr, true)
				b = append(b, ',')
				operand(op.Data, false)
				b = append(b, ",r"...)
				b = strconv.AppendInt(b, int64(reg(op.Dst)), 10)
			case c11.OpFence:
				b = append(b, "f,"...)
				b = append(b, op.Ord.String()...)
			}
			if len(op.CtrlDepOn) > 0 {
				deps := append(depsBuf[:0], op.CtrlDepOn...)
				depsBuf = deps
				sort.Ints(deps)
				// fmt's %v rendering of []int: "[a b c]".
				b = append(b, ",ctrl["...)
				for i, d := range deps {
					if i > 0 {
						b = append(b, ' ')
					}
					b = strconv.AppendInt(b, int64(d), 10)
				}
				b = append(b, ']')
			}
			b = append(b, ';')
		}
		// Observers for this thread, in (register, label) order. The
		// canonical register map is thread-local, so they are rendered
		// inside the thread block.
		type canonObs struct {
			rendered string // "r<canon>" or "?<raw>" for never-written registers
			label    string
		}
		var obs []canonObs
		for _, o := range mp.Observers {
			if o.Thread != th {
				continue
			}
			label := o.Label
			if anonLabels {
				label = "*"
			}
			if c, ok := canon[o.Reg]; ok {
				obs = append(obs, canonObs{"r" + strconv.Itoa(c), label})
			} else {
				// An observer of a never-written register: keep the raw
				// number, prefixed so it cannot collide with canon ids.
				obs = append(obs, canonObs{"?" + strconv.Itoa(o.Reg), label})
			}
		}
		sort.Slice(obs, func(i, j int) bool {
			if obs[i].rendered != obs[j].rendered {
				return obs[i].rendered < obs[j].rendered
			}
			return obs[i].label < obs[j].label
		})
		for _, o := range obs {
			b = append(b, "obs:"...)
			b = append(b, o.rendered...)
			b = append(b, '=')
			b = append(b, o.label...)
			b = append(b, ';')
		}
		blocks = append(blocks, string(b))
	}
	return blocks
}

// renderMemObs renders the program-wide memory observers.
func renderMemObs(p *c11.Program, sigma []int, anonLabels bool) string {
	mp := p.Mem()
	if len(mp.MemObservers) == 0 {
		return ""
	}
	memObs := make([]mem.MemObserver, len(mp.MemObservers))
	for i, o := range mp.MemObservers {
		loc := o.Loc
		if loc >= 0 && int(loc) < len(sigma) {
			loc = mem.Loc(sigma[loc])
		}
		memObs[i] = mem.MemObserver{Loc: loc, Label: o.Label}
	}
	sort.Slice(memObs, func(i, j int) bool {
		if memObs[i].Loc != memObs[j].Loc {
			return memObs[i].Loc < memObs[j].Loc
		}
		return memObs[i].Label < memObs[j].Label
	})
	var out []byte
	for _, o := range memObs {
		label := o.Label
		if anonLabels {
			label = "*"
		}
		out = append(out, "memobs:"...)
		out = strconv.AppendInt(out, int64(o.Loc), 10)
		out = append(out, '=')
		out = append(out, label...)
		out = append(out, ';')
	}
	return string(out)
}

// canonValues renumbers the data constants of a rendered program ($N
// markers) by order of appearance, making the structural fingerprint
// independent of which concrete integers a test writes. The map is
// injective, so distinct values stay distinct.
func canonValues(s string) string {
	out := make([]byte, 0, len(s)+8)
	canon := map[string]int{}
	for i := 0; i < len(s); i++ {
		if s[i] != '$' {
			out = append(out, s[i])
			continue
		}
		j := i + 1
		if j < len(s) && s[j] == '-' {
			j++
		}
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		tok := s[i:j]
		c, ok := canon[tok]
		if !ok {
			c = len(canon)
			canon[tok] = c
		}
		out = append(out, "$v"...)
		out = strconv.AppendInt(out, int64(c), 10)
		i = j - 1
	}
	return string(out)
}
