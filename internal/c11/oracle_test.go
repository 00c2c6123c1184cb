package c11

import (
	"fmt"
	"math/bits"
	"slices"

	"tricheck/internal/mem"
)

// The oracle is the checker's happens-before and eco as they were computed
// before the checker read them from the program's event classes and the
// closed form (addSW, buildEco): every (atomic write, atomic read) pair
// with fence scans, a Floyd–Warshall closure of hb whether or not a
// synchronizes-with edge was added, eco as the Floyd–Warshall closure of
// rf ∪ mo ∪ fr, and the non-atomic axioms on every program.
// checkAgainstOracle holds the checker to it on every candidate.

// oracleHB writes (sb ∪ sw)+ into hb.
func (c *checker) oracleHB(hb *bitmat) {
	copy(hb.bits, c.sb.bits)
	for w := 0; w < c.n; w++ {
		if !c.isWrite(w) || !c.atomic(w) {
			continue
		}
		rs := c.releaseSequence(w)
		inRS := c.inRS
		for _, m := range rs {
			inRS[m] = true
		}
		for r := 0; r < c.n; r++ {
			if !c.isRead(r) || !c.atomic(r) || c.ev[r].Thread == c.ev[w].Thread {
				continue
			}
			src := c.x.RF[r]
			if src == mem.InitWrite || !inRS[src] {
				continue
			}
			wRel := c.p.ord[w].IsRelease()
			rAcq := c.p.ord[r].IsAcquire()
			if wRel && rAcq {
				hb.set(w, r)
			}
			if rAcq {
				for f := 0; f < c.n; f++ {
					if c.isFence(f) && c.p.ord[f].IsRelease() && c.sb.get(f, w) {
						hb.set(f, r)
					}
				}
			}
			if wRel {
				for g := 0; g < c.n; g++ {
					if c.isFence(g) && c.p.ord[g].IsAcquire() && c.sb.get(r, g) {
						hb.set(w, g)
					}
				}
			}
			for f := 0; f < c.n; f++ {
				if !(c.isFence(f) && c.p.ord[f].IsRelease() && c.sb.get(f, w)) {
					continue
				}
				for g := 0; g < c.n; g++ {
					if c.isFence(g) && c.p.ord[g].IsAcquire() && c.sb.get(r, g) {
						hb.set(f, g)
					}
				}
			}
		}
		for _, m := range rs {
			inRS[m] = false
		}
	}
	closure(hb, c.n)
}

// oracleEco writes (rf ∪ mo ∪ fr)+ into eco.
func (c *checker) oracleEco(eco *bitmat) {
	x := c.x
	clear(eco.bits)
	for r := 0; r < c.n; r++ {
		if !c.isRead(r) {
			continue
		}
		src := x.RF[r]
		srcIdx := 0
		if src != mem.InitWrite {
			eco.set(src, r)
			srcIdx = x.MOIndex[src]
		}
		for _, w := range x.MO[x.LocOf[r]] {
			if x.MOIndex[w] > srcIdx && w != r {
				eco.set(r, w)
			}
		}
	}
	for w1 := 0; w1 < c.n; w1++ {
		if !c.isWrite(w1) {
			continue
		}
		for w2 := 0; w2 < c.n; w2++ {
			if w1 != w2 && c.isWrite(w2) && x.SameLoc(w1, w2) && x.MOBefore(w1, w2) {
				eco.set(w1, w2)
			}
		}
	}
	closure(eco, c.n)
}

// oracleCheck is check over the oracle's eco, with the non-atomic axioms
// run on every program. The checker's hb must already equal the oracle's.
func (c *checker) oracleCheck(eco *bitmat) (ok, racy bool) {
	for a := 0; a < c.n; a++ {
		if c.hb.get(a, a) {
			return false, false
		}
		row := c.hb.row(a)
		for wi, wv := range row {
			for wv != 0 {
				b := wi<<6 + bits.TrailingZeros64(wv)
				wv &= wv - 1
				if eco.get(b, a) {
					return false, false
				}
			}
		}
	}
	if !c.scConsistent() || !c.naReadsVisible() {
		return false, false
	}
	return true, c.hasRace()
}

// checkAgainstOracle enumerates p's candidates and requires, on each, the
// checker's hb rows, eco rows and check result to equal the oracle's. It
// returns the number of candidates, and an error naming the first
// difference.
func checkAgainstOracle(p *Program) (int, error) {
	c := acquireChecker(p)
	defer releaseChecker(c)
	hb, eco := newBitmat(c.n), newBitmat(c.n)
	n := 0
	var diff error
	err := mem.Enumerate(p.memp, func(x *mem.Execution) bool {
		n++
		c.bind(x)
		c.oracleHB(&hb)
		if i := diffRow(&c.hb, &hb, c.n); i >= 0 {
			diff = fmt.Errorf("candidate %d: hb row %d is %x, oracle %x\n%s", n, i, c.hb.row(i), hb.row(i), x)
			return false
		}
		c.buildEco()
		c.oracleEco(&eco)
		if i := diffRow(&c.eco, &eco, c.n); i >= 0 {
			diff = fmt.Errorf("candidate %d: eco row %d is %x, oracle %x\n%s", n, i, c.eco.row(i), eco.row(i), x)
			return false
		}
		ok, racy := c.check()
		wantOK, wantRacy := c.oracleCheck(&eco)
		if ok != wantOK || racy != wantRacy {
			diff = fmt.Errorf("candidate %d: check is (%v, %v), oracle (%v, %v)\n%s", n, ok, racy, wantOK, wantRacy, x)
			return false
		}
		return true
	})
	if diff != nil {
		return n, diff
	}
	return n, err
}

// diffRow returns the first row where a and b differ, or -1.
func diffRow(a, b *bitmat, n int) int {
	for i := 0; i < n; i++ {
		if !slices.Equal(a.row(i), b.row(i)) {
			return i
		}
	}
	return -1
}
