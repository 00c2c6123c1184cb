package c11_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/synth"
)

// checkOracle runs c11.CheckAgainstOracle on p and returns its candidate
// count.
func checkOracle(t *testing.T, name string, p *c11.Program) int {
	t.Helper()
	n, err := c11.CheckAgainstOracle(p)
	if err != nil {
		t.Fatalf("%s:\n%s\n%v", name, p, err)
	}
	return n
}

// TestCheckerMatchesOracle holds the checker's happens-before (closed
// only after a synchronizes-with edge), its closed-form eco and its
// check result to the Floyd–Warshall oracle on every candidate of every
// shape's variants (the paper suite first), the synthesized corpus up to
// six edges (every 16th test under -short), seeded random programs with
// RMWs, fences and non-atomic accesses, and a program of more than 64
// events.
func TestCheckerMatchesOracle(t *testing.T) {
	tests, cands := 0, 0
	for _, s := range litmus.AllShapes() {
		for _, tst := range s.Generate() {
			tests++
			cands += checkOracle(t, tst.Name, tst.Prog)
		}
	}
	t.Logf("shapes: %d tests, %d candidates", tests, cands)

	res, err := synth.Enumerate(synth.Options{MaxLen: 6, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 16
	}
	tests, cands = 0, 0
	i := 0
	for _, s := range synth.NovelOnly(res) {
		for _, tst := range s.Shape.Generate() {
			if i++; i%stride != 0 {
				continue
			}
			tests++
			cands += checkOracle(t, tst.Name, tst.Prog)
		}
	}
	t.Logf("synthesized: %d tests, %d candidates", tests, cands)

	cands = 0
	for seed := int64(1); seed <= 400; seed++ {
		cands += checkOracle(t, "random program", randomProgram(rand.New(rand.NewSource(seed))))
	}
	t.Logf("random: 400 programs, %d candidates", cands)

	p := wideProgram()
	if n := len(p.Mem().Events()); n <= 64 {
		t.Fatalf("wide program has %d events, want more than 64", n)
	}
	t.Logf("wide: %d candidates", checkOracle(t, "wide program", p))
}

// randomProgram builds 2 or 3 threads of 1 to 4 operations over two
// locations: loads, stores, RMWs and fences at every order their kind
// takes, non-atomic accesses included, some loads control-dependent on an
// earlier load.
func randomProgram(rng *rand.Rand) *c11.Program {
	p := c11.New(2, "x", "y")
	loads := []c11.Order{c11.NA, c11.Rlx, c11.Acq, c11.SC}
	stores := []c11.Order{c11.NA, c11.Rlx, c11.Rel, c11.SC}
	rmws := []c11.Order{c11.Rlx, c11.Acq, c11.Rel, c11.AcqRel, c11.SC}
	fences := []c11.Order{c11.Acq, c11.Rel, c11.AcqRel, c11.SC}
	nth := 2 + rng.Intn(2)
	for t := 0; t < nth; t++ {
		reg, prevLoad := 0, -1
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			loc := mem.Const(int64(rng.Intn(2)))
			val := mem.Const(int64(1 + rng.Intn(2)))
			switch rng.Intn(4) {
			case 0:
				ord := loads[rng.Intn(len(loads))]
				if prevLoad >= 0 && rng.Intn(3) == 0 {
					p.LoadDep(t, ord, loc, reg, []int{prevLoad})
				} else {
					p.Load(t, ord, loc, reg)
				}
				p.Observe(t, reg, fmt.Sprintf("%d:r%d", t, reg))
				prevLoad = i
				reg++
			case 1:
				p.Store(t, stores[rng.Intn(len(stores))], loc, val)
			case 2:
				fn := mem.RMWAdd
				if rng.Intn(2) == 0 {
					fn = mem.RMWSwap
				}
				p.RMW(t, rmws[rng.Intn(len(rmws))], loc, val, reg, fn)
				p.Observe(t, reg, fmt.Sprintf("%d:r%d", t, reg))
				reg++
			case 3:
				p.FenceOp(t, fences[rng.Intn(len(fences))])
			}
		}
	}
	return p
}

// wideProgram is message passing through an RMW whose events span two
// words of a relation row: T0's data store has GID 0, then 64 stores to
// private locations that no one reads (one candidate each) and release
// and acquire fences, then the flag store, T1's RMW on the flag and T2's
// acquire loads.
func wideProgram() *c11.Program {
	const pad = 64
	p := c11.New(2+pad, "x", "y")
	x, y := mem.Const(0), mem.Const(1)
	p.Store(0, c11.Rlx, x, mem.Const(1))
	for i := 0; i < pad; i++ {
		p.Store(i%2, c11.Rlx, mem.Const(int64(2+i)), mem.Const(1))
		if i%16 == 0 {
			p.FenceOp(i%2, c11.Rel)
			p.FenceOp(2, c11.Acq)
		}
	}
	p.Store(0, c11.Rlx, y, mem.Const(1))
	p.RMW(1, c11.AcqRel, y, mem.Const(1), 0, mem.RMWAdd)
	p.Store(1, c11.Rlx, x, mem.Const(2))
	p.Load(2, c11.Rlx, y, 1)
	p.FenceOp(2, c11.Acq)
	p.Load(2, c11.Rlx, x, 2)
	p.Observe(1, 0, "r0")
	p.Observe(2, 1, "r1")
	p.Observe(2, 2, "r2")
	return p
}
