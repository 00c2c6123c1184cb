package main

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"tricheck/internal/c11"
	"tricheck/internal/core"
	"tricheck/internal/litmus"
)

// catalog is a workload's canonical test list: every memory-order
// variant of its shapes, in Shape.Generate order. A workload's seed
// picks positions in it; the references are keyed by position.
type catalog struct {
	shapes []*litmus.Shape
	starts []int // position of each shape's first variant
	n      int
}

func newCatalog(shapes []*litmus.Shape) *catalog {
	c := &catalog{shapes: shapes}
	for _, s := range shapes {
		c.starts = append(c.starts, c.n)
		c.n += variants(s)
	}
	return c
}

// variants counts a shape's memory-order variants.
func variants(s *litmus.Shape) int {
	n := 1
	for _, k := range s.Slots {
		n *= len(k.Choices())
	}
	return n
}

// test instantiates the variant at position i, decoding i in the mixed
// radix Shape.Generate enumerates in (first slot most significant).
func (c *catalog) test(i int) *litmus.Test {
	k := len(c.starts) - 1
	for c.starts[k] > i {
		k--
	}
	s, j := c.shapes[k], i-c.starts[k]
	orders := make([]c11.Order, len(s.Slots))
	for slot := len(s.Slots) - 1; slot >= 0; slot-- {
		ch := s.Slots[slot].Choices()
		orders[slot] = ch[j%len(ch)]
		j /= len(ch)
	}
	return s.Instantiate(orders)
}

// digest identifies the catalog by its shapes' names and slot lists, so
// a reference generated for another catalog is refused by name.
func (c *catalog) digest() string {
	h := sha256.New()
	for _, s := range c.shapes {
		fmt.Fprintf(h, "%s %v\n", s.Name, s.Slots)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// Verdict letters of the reference tables.
var letters = map[verdict]byte{
	{v: core.Equivalent}:                     'E',
	{v: core.OverlyStrict}:                   'S',
	{v: core.Bug}:                            'B',
	{v: core.Bug, specifiedBug: true}:        'X',
	{v: core.Divergence}:                     'D',
	{v: core.Divergence, specifiedBug: true}: 'Y',
}

// reference is a per-(test, stack) verdict table generated once from
// the engine and committed under testdata/: one row per catalog
// position, one letter per stack.
type reference struct {
	stacks []string
	rows   [][]verdict
}

//go:embed testdata/*.gz
var testdata embed.FS

// loadReference reads testdata/<name>.txt.gz and checks that it was
// generated for this catalog and these stacks.
func loadReference(name string, c *catalog, stacks []core.Stack) (*reference, error) {
	f, err := testdata.Open("testdata/" + name + ".txt.gz")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	sc := bufio.NewScanner(zr)
	header := func(key string) (string, error) {
		if !sc.Scan() {
			return "", fmt.Errorf("reference %s: missing %q header", name, key)
		}
		v, ok := strings.CutPrefix(sc.Text(), "# "+key+" ")
		if !ok {
			return "", fmt.Errorf("reference %s: want %q header, got %q", name, key, sc.Text())
		}
		return v, nil
	}
	digest, err := header("corpus")
	if err != nil {
		return nil, err
	}
	if digest != c.digest() {
		return nil, fmt.Errorf("reference %s: generated for corpus %s, this one is %s", name, digest, c.digest())
	}
	names, err := header("stacks")
	if err != nil {
		return nil, err
	}
	ref := &reference{stacks: strings.Split(names, "|")}
	if want := stackNames(stacks); names != strings.Join(want, "|") {
		return nil, fmt.Errorf("reference %s: stacks %v, workload has %v", name, ref.stacks, want)
	}
	byLetter := map[byte]verdict{}
	for v, l := range letters {
		byLetter[l] = v
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) != len(ref.stacks) {
			return nil, fmt.Errorf("reference %s: row %d has %d verdicts for %d stacks", name, len(ref.rows), len(line), len(ref.stacks))
		}
		row := make([]verdict, len(line))
		for si, l := range line {
			v, ok := byLetter[l]
			if !ok {
				return nil, fmt.Errorf("reference %s: row %d: unknown verdict letter %q", name, len(ref.rows), l)
			}
			row[si] = v
		}
		ref.rows = append(ref.rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	if len(ref.rows) != c.n {
		return nil, fmt.Errorf("reference %s: %d rows for a corpus of %d tests", name, len(ref.rows), c.n)
	}
	return ref, nil
}

// writeReference renders the table for results — one SuiteResult per
// stack over the whole catalog in catalog order — in loadReference's
// format.
func writeReference(w io.Writer, c *catalog, stacks []core.Stack, results []*core.SuiteResult) error {
	zw := gzip.NewWriter(w)
	fmt.Fprintf(zw, "# corpus %s\n# stacks %s\n", c.digest(), strings.Join(stackNames(stacks), "|"))
	row := make([]byte, len(results)+1)
	row[len(results)] = '\n'
	for ti := 0; ti < c.n; ti++ {
		for si, sr := range results {
			r := sr.Results[ti]
			l, ok := letters[verdictOf(r)]
			if !ok {
				return fmt.Errorf("reference: no letter for %s on %s: %s", r.Test.Name, r.Stack.Name(), verdictOf(r))
			}
			row[si] = l
		}
		if _, err := zw.Write(row); err != nil {
			return err
		}
	}
	return zw.Close()
}

// at returns the reference verdict of catalog position i on stack si.
func (r *reference) at(i, si int) verdict { return r.rows[i][si] }

// check compares a sweep's results — one SuiteResult per stack, tests
// in sweep order, tests[k] at catalog position pos[k] — with the table.
func (r *reference) check(pos []int, results []*core.SuiteResult) error {
	if len(results) != len(r.stacks) {
		return mismatch("%d stacks swept, reference has %d", len(results), len(r.stacks))
	}
	for si, sr := range results {
		if len(sr.Results) != len(pos) {
			return mismatch("%s: %d results for %d tests", r.stacks[si], len(sr.Results), len(pos))
		}
		for k, res := range sr.Results {
			if got, want := verdictOf(res), r.at(pos[k], si); got != want {
				return mismatch("%s on %s: got %s, reference %s", res.Test.Name, r.stacks[si], got, want)
			}
		}
	}
	return nil
}

func stackNames(stacks []core.Stack) []string {
	out := make([]string, len(stacks))
	for i, s := range stacks {
		out[i] = s.Name()
	}
	return out
}
