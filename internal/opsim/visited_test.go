package opsim

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
)

// visitedKeys returns a seeded stream of n keys with repeats, drawn
// from a pool of random keys of up to 12 bytes over a three-letter
// alphabet, so the stream is rich in keys that are prefixes of one
// another and keys that differ only in their last byte. The empty key
// and a few such families lead the pool, and lead the stream once.
func visitedKeys(seed int64, n, pool int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := [][]byte{{}, {0}, {0, 0}, {1}, {1, 0}, {1, 0, 2}, {1, 0, 1}, {1, 0, 0}}
	for len(keys) < pool {
		k := make([]byte, rng.Intn(13))
		for i := range k {
			k[i] = byte(rng.Intn(3))
		}
		keys = append(keys, k)
	}
	stream := make([][]byte, n)
	for i := range stream {
		stream[i] = keys[rng.Intn(len(keys))]
	}
	return append(keys[:8:8], stream...)
}

// TestVisitedSetExact checks the set against a map[string]bool over
// about 100k keys with repeats, across the table's growths from
// minTable slots, then again after the set was emptied. The set must
// keep its own copy of every key: one buffer carries every key in.
func TestVisitedSetExact(t *testing.T) {
	v := newVisitedSet()
	for round, seed := range []int64{1, 2} {
		ref := map[string]bool{}
		var buf []byte
		for i, k := range visitedKeys(seed, 100_000, 30_000) {
			buf = append(buf[:0], k...)
			want := !ref[string(k)]
			ref[string(k)] = true
			if got := v.insert(buf); got != want {
				t.Fatalf("round %d, key %d %x: insert = %v, want %v", round, i, k, got, want)
			}
		}
		if len(v.hashes) != len(ref) {
			t.Errorf("round %d: set holds %d keys, want %d", round, len(v.hashes), len(ref))
		}
		if len(v.table) < 2*len(ref) {
			t.Errorf("round %d: table of %d slots for %d keys is more than half full", round, len(v.table), len(ref))
		}
		v.reset()
	}
}

// TestVisitedSetForcedCollisions inserts distinct keys under one shared
// hash: a set that trusted hashes would merge them. Each must stay
// distinct, and be found again.
func TestVisitedSetForcedCollisions(t *testing.T) {
	v := newVisitedSet()
	keys := [][]byte{{}, {0}, {0, 0}, []byte("ab"), []byte("abc"), []byte("abd")}
	for i := 0; i < 200; i++ { // past three table growths
		keys = append(keys, []byte(fmt.Sprintf("key%d", i)))
	}
	const h = 0x9e3779b97f4a7c15
	for _, k := range keys {
		if !v.insertHash(k, h) {
			t.Fatalf("distinct key %q reported as seen", k)
		}
	}
	for _, k := range keys {
		if v.insertHash(k, h) {
			t.Fatalf("key %q not found again", k)
		}
	}
	if len(v.hashes) != len(keys) {
		t.Errorf("set holds %d keys, want %d", len(v.hashes), len(keys))
	}
}

// TestVisitedSetEmptying: a set given back and borrowed again reports
// every earlier key as new, and emptying clears only the slots the set's
// keys fill, so it costs what the set held, not the table the largest
// exploration it served grew.
func TestVisitedSetEmptying(t *testing.T) {
	earlier := map[string]bool{}
	for round := 0; round < 4; round++ {
		v := getVisited()
		for k := range earlier {
			if !v.insert([]byte(k)) {
				t.Fatalf("round %d: key %x from an earlier borrow is still in the set", round, k)
			}
		}
		for _, k := range visitedKeys(int64(round), 1000<<round, 500<<round) {
			v.insert(k)
			earlier[string(k)] = true
		}
		putVisited(v)
	}

	// A set that grew for a big exploration, then served a small one:
	// every free slot carries a mark that reset must leave alone.
	v := newVisitedSet()
	for _, k := range visitedKeys(7, 50_000, 50_000) {
		v.insert(k)
	}
	v.reset()
	small := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for _, k := range small {
		v.insert(k)
	}
	const mark = -1
	marked := 0
	for i, k := range v.table {
		if k == 0 {
			v.table[i] = mark
			marked++
		}
	}
	v.reset()
	for i, k := range v.table {
		switch {
		case k > 0:
			t.Fatalf("slot %d still holds key %d after reset", i, k-1)
		case k == mark:
			marked--
		}
	}
	if marked != 0 {
		t.Errorf("reset of a set holding %d keys wrote %d free slots of its %d-slot table; it must clear only the slots its keys fill",
			len(small), marked, len(v.table))
	}
}

// TestOutcomesIdempotent: a second Outcomes call returns the same set
// without exploring again, and Trace returns the same witness on a
// fresh simulator and after Outcomes, on every machine.
func TestOutcomesIdempotent(t *testing.T) {
	for _, c := range []struct {
		shape  *litmus.Shape
		orders []c11.Order
	}{
		{litmus.SB, []c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx}},
		{litmus.WRC, []c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx}},
	} {
		tst := c.shape.Instantiate(c.orders)
		prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			name := tst.Name + "/" + m.name
			sim := m.new(prog)
			first := maps.Clone(sim.Outcomes())
			states := sim.StateCount()
			if again := sim.Outcomes(); !reflect.DeepEqual(again, first) {
				t.Errorf("%s: second Outcomes = %v, first %v", name, again, first)
			}
			if sim.StateCount() != states {
				t.Errorf("%s: StateCount %d after a second Outcomes, %d after the first", name, sim.StateCount(), states)
			}
			target := slices.Max(slices.Collect(maps.Keys(first)))
			fresh := m.new(prog).Trace(target)
			if fresh == nil {
				t.Fatalf("%s: no witness for reachable outcome %q", name, target)
			}
			if after := sim.Trace(target); !reflect.DeepEqual(after, fresh) {
				t.Errorf("%s: witness after Outcomes\n\t%v\nwant the fresh simulator's\n\t%v", name, after, fresh)
			}
		}
	}
}
