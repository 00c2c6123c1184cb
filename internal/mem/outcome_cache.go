package mem

import "sync"

// OutcomeCache interns the outcomes of one program's enumeration sweep.
//
// OutcomeOf formats "label=value" pairs for every candidate, which
// dominated evaluator profiles: an enumeration visits orders of
// magnitude more candidates than it has distinct outcomes. The cache
// keys candidates by their packed observer-value vector (computed
// allocation-free from the scratch Execution) and formats the canonical
// Outcome string once per distinct vector — the returned strings are
// exactly OutcomeOf's, so outcome sets, tallies, and Explain output are
// bit-identical to the uncached path.
//
// The intern table is a flat open-addressed map over the packed word
// vectors (linear probing, power-of-two capacity): no per-lookup string
// conversion, no hashed string keys — on a cold sweep the per-candidate
// lookup is the evaluators' innermost non-verdict operation.
//
// Lookup also returns a dense id (assignment order), letting evaluators
// replace per-candidate map[Outcome] updates with slice indexing and
// build their outcome maps once at the end of the sweep.
//
// A cache is bound to one Program and, like the enumerator's scratch
// Execution, is not safe for concurrent use.
type OutcomeCache struct {
	p *Program
	// regGID[i] is the gid of the read that determines register observer
	// i's final value (the last matching load of the thread), or -1.
	regGID []int
	nk     int      // key words per outcome (register + memory observers)
	buf    []uint64 // packing scratch, nk words
	sbuf   []byte   // rendering scratch for misses
	keys   []uint64 // interned key vectors, nk words per id
	outs   []Outcome
	table  []int32 // open-addressed id slots; -1 = empty
	mask   uint32
}

// NewOutcomeCache returns an empty cache for p's observers.
func NewOutcomeCache(p *Program) *OutcomeCache {
	c := &OutcomeCache{}
	c.bind(p)
	return c
}

// bind points the cache at p and empties the intern stores, keeping
// their capacity for reuse.
func (c *OutcomeCache) bind(p *Program) {
	c.p = p
	c.regGID = c.regGID[:0]
	for _, o := range p.Observers {
		gid := -1
		for _, e := range p.Threads[o.Thread] {
			if e.IsRead() && e.Dst == o.Reg {
				gid = e.GID
			}
		}
		c.regGID = append(c.regGID, gid)
	}
	c.nk = len(p.Observers) + len(p.MemObservers)
	if cap(c.buf) < c.nk {
		c.buf = make([]uint64, c.nk)
	} else {
		c.buf = c.buf[:c.nk]
	}
	// Modest presize for the intern stores: enough that small sweeps
	// never regrow, without inflating the per-evaluation footprint (one
	// cache is bound per evaluator call).
	if c.sbuf == nil {
		c.sbuf = make([]byte, 0, 48)
	}
	c.sbuf = c.sbuf[:0]
	if c.keys == nil {
		c.keys = make([]uint64, 0, 8*c.nk)
	}
	c.keys = c.keys[:0]
	if c.outs == nil {
		c.outs = make([]Outcome, 0, 8)
	}
	c.outs = c.outs[:0]
	if c.table == nil {
		c.table = make([]int32, 64)
	}
	for i := range c.table {
		c.table[i] = -1
	}
	c.mask = uint32(len(c.table) - 1)
}

// outcomeCachePool recycles caches between evaluator calls: a cold sweep
// binds one cache per (test, evaluator) and discards it as soon as the
// outcome sets are built, so the intern stores otherwise dominate the
// evaluators' allocation profile.
var outcomeCachePool sync.Pool

// AcquireOutcomeCache returns a pooled cache bound to p. Release with
// ReleaseOutcomeCache once the interned outcomes have been copied out;
// the Outcome strings themselves remain valid (they are immutable).
func AcquireOutcomeCache(p *Program) *OutcomeCache {
	if v := outcomeCachePool.Get(); v != nil {
		c := v.(*OutcomeCache)
		c.bind(p)
		return c
	}
	return NewOutcomeCache(p)
}

// ReleaseOutcomeCache returns c to the pool. The caller must not use c
// or the slice returned by Outcomes afterwards.
func ReleaseOutcomeCache(c *OutcomeCache) {
	if c == nil {
		return
	}
	c.p = nil
	outcomeCachePool.Put(c)
}

// Outcomes returns the interned outcomes in first-seen order; index is
// the dense id Lookup returned for each.
func (c *OutcomeCache) Outcomes() []Outcome { return c.outs }

func hashWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for _, w := range ws {
		h ^= w
		h *= 1099511628211 // FNV prime
	}
	return h
}

// Lookup returns the execution's outcome and its dense id, interning on
// first sight. x must be an execution of the cache's program.
func (c *OutcomeCache) Lookup(x *Execution) (Outcome, int) {
	buf := c.buf
	k := 0
	for _, gid := range c.regGID {
		var v int64
		if gid >= 0 {
			v = x.RVal[gid]
		}
		buf[k] = uint64(v)
		k++
	}
	for _, m := range c.p.MemObservers {
		buf[k] = uint64(x.finalValue(m.Loc))
		k++
	}
	i := uint32(hashWords(buf)) & c.mask
	for {
		id := c.table[i]
		if id < 0 {
			break
		}
		if c.keyEqual(int(id), buf) {
			return c.outs[id], int(id)
		}
		i = (i + 1) & c.mask
	}
	// Miss: render the canonical string from the packed values. regGID
	// mirrors RegValue (last matching read, zero default) and the memory
	// words above are finalValue's, so this is byte-for-byte OutcomeOf's
	// output without re-walking the execution.
	b := c.sbuf[:0]
	k = 0
	for _, o := range c.p.Observers {
		b = appendOutcomePart(b, o.Label, int64(buf[k]))
		k++
	}
	for _, m := range c.p.MemObservers {
		b = appendOutcomePart(b, m.Label, int64(buf[k]))
		k++
	}
	c.sbuf = b
	o := Outcome(b)
	id := len(c.outs)
	c.outs = append(c.outs, o)
	c.keys = append(c.keys, buf...)
	c.table[i] = int32(id)
	if 4*len(c.outs) >= 3*len(c.table) {
		c.grow()
	}
	return o, id
}

func (c *OutcomeCache) keyEqual(id int, buf []uint64) bool {
	key := c.keys[id*c.nk : (id+1)*c.nk]
	for i, w := range key {
		if w != buf[i] {
			return false
		}
	}
	return true
}

func (c *OutcomeCache) grow() {
	nt := make([]int32, 2*len(c.table))
	for i := range nt {
		nt[i] = -1
	}
	mask := uint32(len(nt) - 1)
	for id := range c.outs {
		i := uint32(hashWords(c.keys[id*c.nk:(id+1)*c.nk])) & mask
		for nt[i] >= 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(id)
	}
	c.table, c.mask = nt, mask
}
