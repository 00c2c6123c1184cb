package cover

import (
	"math/bits"
	"sort"
)

// Discrimination is the per-(test, config) verdict-vector matrix
// assembled from a ledger's recorded vectors: Verdict[i][j] is test i's
// verdict ordinal on config j, or -1 when the pair was never recorded
// (e.g. a partial sweep).
type Discrimination struct {
	Tests   []string `json:"tests"`
	Stacks  []string `json:"stacks"`
	Verdict [][]int8 `json:"-"`
}

// Discrimination builds the matrix from the ledger's vectors, with tests
// and stacks in sorted order.
func (l *Ledger) Discrimination() *Discrimination {
	l.vmu.Lock()
	defer l.vmu.Unlock()
	d := &Discrimination{}
	for test := range l.vectors {
		d.Tests = append(d.Tests, test)
	}
	// Every interned column has a record: a stack is interned by its
	// first one.
	d.Stacks = append(d.Stacks, l.stacks...)
	sort.Strings(d.Tests)
	sort.Strings(d.Stacks)
	d.Verdict = make([][]int8, len(d.Tests))
	for i, test := range d.Tests {
		row := make([]int8, len(d.Stacks))
		vs := l.vectors[test]
		for j, stack := range d.Stacks {
			row[j] = -1
			if col := l.columns[stack]; col < len(vs) && vs[col] != 0 {
				row[j] = int8(vs[col] - 1)
			}
		}
		d.Verdict[i] = row
	}
	return d
}

// Pick is one greedy suite selection: the test and the number of
// config pairs it newly separated when chosen.
type Pick struct {
	Test      string `json:"test"`
	Separated int    `json:"separated"`
}

// Suite is a minimal discriminating suite: the greedy set-cover
// reduction of a discrimination matrix. Picks (in selection order)
// jointly separate every separable config pair; Inseparable lists the
// pairs no recorded test distinguishes — configs whose verdict vectors
// are identical over the whole matrix.
type Suite struct {
	Configs        int         `json:"configs"`
	SeparablePairs int         `json:"separable_pairs"`
	Picks          []Pick      `json:"picks"`
	Inseparable    [][2]string `json:"inseparable,omitempty"`
}

// MinimalSuite runs greedy set cover over config pairs: repeatedly pick
// the test separating the most still-unseparated pairs (ties broken by
// test order, so the result is deterministic) until every separable pair
// is covered. Greedy set cover is a ln(n)-approximation of the true
// minimum — the standard bound; exact minimization is NP-hard.
//
// A test separates a pair (a, b) when it has a recorded verdict on both
// configs and the verdicts differ; missing entries never separate.
func (d *Discrimination) MinimalSuite() *Suite {
	s := &Suite{Configs: len(d.Stacks)}
	nPairs := len(d.Stacks) * (len(d.Stacks) - 1) / 2
	if nPairs == 0 {
		return s
	}
	words := (nPairs + 63) / 64

	// Per-test bitset over pair indices; pair (j, k), j<k, has index
	// j*(2n-j-1)/2 + (k-j-1) — the row-major upper triangle.
	n := len(d.Stacks)
	pairIdx := func(j, k int) int { return j*(2*n-j-1)/2 + (k - j - 1) }
	sep := make([][]uint64, len(d.Tests))
	for i, row := range d.Verdict {
		bs := make([]uint64, words)
		for j := 0; j < n; j++ {
			if row[j] < 0 {
				continue
			}
			for k := j + 1; k < n; k++ {
				if row[k] >= 0 && row[k] != row[j] {
					p := pairIdx(j, k)
					bs[p/64] |= 1 << (p % 64)
				}
			}
		}
		sep[i] = bs
	}

	// Universe: pairs some test separates. The rest are inseparable.
	universe := make([]uint64, words)
	for _, bs := range sep {
		for w := range universe {
			universe[w] |= bs[w]
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			p := pairIdx(j, k)
			if universe[p/64]&(1<<(p%64)) == 0 {
				s.Inseparable = append(s.Inseparable, [2]string{d.Stacks[j], d.Stacks[k]})
			}
		}
	}
	remaining := 0
	for _, w := range universe {
		remaining += bits.OnesCount64(w)
	}
	s.SeparablePairs = remaining

	for remaining > 0 {
		best, bestGain := -1, 0
		for i, bs := range sep {
			gain := 0
			for w := range bs {
				gain += bits.OnesCount64(bs[w] & universe[w])
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // unreachable: every universe pair is separable
		}
		for w := range universe {
			universe[w] &^= sep[best][w]
		}
		remaining -= bestGain
		s.Picks = append(s.Picks, Pick{Test: d.Tests[best], Separated: bestGain})
	}
	return s
}
