package opsim

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// visitedSet is an exact set of byte keys: the visited states of one
// exploration. Keys are appended back to back to one arena, and an
// open-addressed table of key indexes, probed linearly from a key's
// hash, finds them again. Every hash match is confirmed by comparing
// bytes, so two keys are one member only when they are equal.
//
// Explorations borrow sets from a pool (getVisited) and give them back
// emptied (putVisited), so an exploration reuses the arena and table an
// earlier one grew instead of growing a map and allocating a string per
// state.
type visitedSet struct {
	arena  []byte   // every key, back to back
	offs   []int    // key k is arena[offs[k]:offs[k+1]]; offs[0] is 0
	hashes []uint64 // hashes[k] is key k's hash
	table  []int32  // per slot: 1 + the index of the key it holds, or 0 if free
}

// minTable is a new set's table size, a power of 2.
const minTable = 64

var (
	visitSeed = maphash.MakeSeed()
	visitPool = sync.Pool{New: func() any { return newVisitedSet() }}
)

func newVisitedSet() *visitedSet {
	return &visitedSet{offs: []int{0}, table: make([]int32, minTable)}
}

// getVisited borrows an empty set.
func getVisited() *visitedSet { return visitPool.Get().(*visitedSet) }

// putVisited empties v and gives it back; v must not be used after.
func putVisited(v *visitedSet) {
	v.reset()
	visitPool.Put(v)
}

// insert adds key to v and reports whether it was new. v keeps a copy,
// so the caller may reuse key's bytes.
func (v *visitedSet) insert(key []byte) bool {
	return v.insertHash(key, maphash.Bytes(visitSeed, key))
}

// insertHash is insert with key's hash h already computed.
func (v *visitedSet) insertHash(key []byte, h uint64) bool {
	mask := len(v.table) - 1
	i := int(h) & mask
	for ; v.table[i] != 0; i = (i + 1) & mask {
		k := v.table[i] - 1
		if v.hashes[k] == h && bytes.Equal(v.arena[v.offs[k]:v.offs[k+1]], key) {
			return false
		}
	}
	n := len(v.hashes)
	if 2*(n+1) > len(v.table) { // keep the table at most half full
		v.table = make([]int32, 2*len(v.table))
		for k, kh := range v.hashes {
			v.table[v.freeSlot(kh)] = int32(k + 1)
		}
		i = v.freeSlot(h)
	}
	v.table[i] = int32(n + 1)
	v.hashes = append(v.hashes, h)
	v.arena = append(v.arena, key...)
	v.offs = append(v.offs, len(v.arena))
	return true
}

// freeSlot returns the first free slot on hash h's probe sequence.
func (v *visitedSet) freeSlot(h uint64) int {
	mask := len(v.table) - 1
	i := int(h) & mask
	for v.table[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// reset empties v. It clears only the slots v's keys fill, found by
// probing again from their hashes, so it costs time in proportion to
// what v held, not to the table the largest exploration it served grew.
func (v *visitedSet) reset() {
	mask := len(v.table) - 1
	for k, h := range v.hashes {
		i := int(h) & mask
		for v.table[i] != int32(k+1) {
			i = (i + 1) & mask
		}
		v.table[i] = 0
	}
	v.arena, v.offs, v.hashes = v.arena[:0], v.offs[:1], v.hashes[:0]
}
