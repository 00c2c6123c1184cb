package c11

import (
	"math/bits"
	"sync"

	"tricheck/internal/mem"
)

// Result is the outcome of evaluating a program against the C11 model.
type Result struct {
	// Allowed is the set of final-state outcomes permitted by C11. If the
	// program is racy (undefined behaviour) this equals All.
	Allowed map[mem.Outcome]bool
	// All is the set of outcomes over every candidate execution, i.e. the
	// outcome universe the microarchitectural side is compared against.
	All map[mem.Outcome]bool
	// Racy reports whether some consistent execution has a data race on a
	// non-atomic access, making the program undefined.
	Racy bool
	// Consistent and Candidates count executions for diagnostics.
	Consistent int
	Candidates int
}

// Evaluate runs the C11 axiomatic model over every candidate execution of p
// and returns the allowed outcome set.
//
// One checker — sequenced-before matrix, the program's event classes,
// happens-before/eco scratch, SC search buffers — is shared across the
// whole enumeration, and outcomes are interned through mem.OutcomeCache so
// the per-candidate map updates run on dense ids. Every candidate is still
// fully checked (the Consistent counter is part of the result), and the
// outcome and allowed sets are bit-identical to checking each candidate
// with a fresh checker.
func Evaluate(p *Program) (*Result, error) {
	res := &Result{}
	cache := mem.AcquireOutcomeCache(p.memp)
	defer mem.ReleaseOutcomeCache(cache)
	var allowed []bool // by dense outcome id
	c := acquireChecker(p)
	defer releaseChecker(c)
	err := mem.Enumerate(p.memp, func(x *mem.Execution) bool {
		res.Candidates++
		_, id := cache.Lookup(x)
		if id == len(allowed) {
			allowed = append(allowed, false)
		}
		c.bind(x)
		ok, racy := c.check()
		if ok {
			res.Consistent++
			allowed[id] = true
			if racy {
				res.Racy = true
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	outs := cache.Outcomes()
	res.All = make(map[mem.Outcome]bool, len(outs))
	res.Allowed = make(map[mem.Outcome]bool, len(outs))
	for id, o := range outs {
		res.All[o] = true
		if allowed[id] {
			res.Allowed[o] = true
		}
	}
	if res.Racy {
		// Undefined behaviour: any outcome is possible.
		for o := range res.All {
			res.Allowed[o] = true
		}
	}
	return res, nil
}

// checker holds the static relations of a program plus reusable scratch for
// checking one candidate execution at a time; bind rebinds it to the next
// candidate without reallocating.
type checker struct {
	p  *Program
	x  *mem.Execution
	n  int
	ev []*mem.Event
	sb bitmat
	hb bitmat // (sb ∪ sw)+

	// The program's event classes, recorded once by bindProgram. relW
	// lists the atomic writes that can be the release end of a
	// synchronizes-with edge, acqR the atomic reads that can be its
	// acquire end (see addSW), and reads every reading event, all in GID
	// order; fences holds their fence lists (syncEnd.lo/hi). hasNA
	// reports a non-atomic access.
	relW, acqR []syncEnd
	fences     []int
	reads      []int
	hasNA      bool

	// Per-candidate scratch, reused across bind calls.
	eco    bitmat
	ecoOff []int    // by location: its first row in sufW and sufR
	sufW   []uint64 // eco's suffix masks of writes (see buildEco)
	sufR   []uint64 // eco's suffix masks of reads
	seq    []int    // releaseSequence result buffer
	inRS   []bool   // by gid; cleared after each use
	scSet  []int    // SC event gids
	scIdx  []int    // by gid: index into scSet, or -1
	must   [][]bool
	order  []int
	used   []bool
	pos    []int
}

// syncEnd is one end of a possible synchronizes-with edge: an atomic write
// that is a release or follows a release fence in sb, or an atomic read
// that is an acquire or precedes an acquire fence in sb. fences[lo:hi]
// are those fences: the write's release fences sb-before it, or the
// read's acquire fences sb-after it.
type syncEnd struct {
	gid, thread int
	ord         bool // the access is itself a release (write) or acquire (read)
	lo, hi      int
}

// newEvalChecker builds a checker for p: the sequenced-before matrix is
// computed once here, everything execution-dependent is filled in by bind.
func newEvalChecker(p *Program) *checker {
	c := &checker{}
	c.bindProgram(p)
	return c
}

// bindProgram points the checker at program p, resizing (and where
// necessary reallocating) its matrices and scratch buffers.
func (c *checker) bindProgram(p *Program) {
	n := len(p.memp.Events())
	c.p, c.n, c.ev = p, n, p.memp.Events()
	ww := (n + 63) / 64
	if ww == 0 {
		ww = 1
	}
	if cap(c.sb.bits) < n*ww {
		c.sb = newBitmat(n)
		c.hb = newBitmat(n)
		c.eco = newBitmat(n)
	} else {
		c.sb.ww, c.sb.bits = ww, c.sb.bits[:n*ww]
		clear(c.sb.bits)
		// hb is fully overwritten by bind, eco by buildEco.
		c.hb.ww, c.hb.bits = ww, c.hb.bits[:n*ww]
		c.eco.ww, c.eco.bits = ww, c.eco.bits[:n*ww]
	}
	for _, th := range p.memp.Threads {
		for i := 0; i < len(th); i++ {
			for j := i + 1; j < len(th); j++ {
				c.sb.set(th[i].GID, th[j].GID)
			}
		}
	}
	c.bindClasses()
	if nl := p.memp.NumLocs; cap(c.ecoOff) < nl {
		c.ecoOff = make([]int, nl)
	} else {
		c.ecoOff = c.ecoOff[:nl]
	}
	if len(c.must) < n {
		c.must = mat(n) // scConsistent clears the rows it uses
	}
	if cap(c.seq) < n {
		c.seq = make([]int, 0, n)
	}
	if len(c.inRS) < n {
		c.inRS = make([]bool, n)
	} else {
		clear(c.inRS[:n]) // addSW leaves it false, but don't rely on it
	}
	if cap(c.scSet) < n {
		c.scSet = make([]int, 0, n)
	}
	if len(c.scIdx) < n {
		c.scIdx = make([]int, n)
	}
	for i := 0; i < n; i++ {
		c.scIdx[i] = -1
	}
	if cap(c.order) < n {
		c.order = make([]int, 0, n)
	}
	if len(c.used) < n {
		c.used = make([]bool, n)
	}
	if len(c.pos) < n {
		c.pos = make([]int, n)
	}
}

// checkerPool recycles checkers between Evaluate calls: one checker is
// bound per evaluation and its matrices otherwise dominate the C11
// side's allocation profile on cold sweeps.
var checkerPool sync.Pool

func acquireChecker(p *Program) *checker {
	if v := checkerPool.Get(); v != nil {
		c := v.(*checker)
		c.bindProgram(p)
		return c
	}
	return newEvalChecker(p)
}

func releaseChecker(c *checker) {
	c.p, c.x, c.ev = nil, nil, nil
	checkerPool.Put(c)
}

// bindClasses records the program's event classes: the reads, whether
// some access is non-atomic, and the two ends a synchronizes-with edge
// can have (syncEnd), each with its fences.
func (c *checker) bindClasses() {
	c.relW, c.acqR = c.relW[:0], c.acqR[:0]
	c.fences, c.reads = c.fences[:0], c.reads[:0]
	c.hasNA = false
	for g, e := range c.ev {
		ord := c.p.ord[g]
		if e.Kind != mem.Fence && ord == NA {
			c.hasNA = true
		}
		if e.IsRead() {
			c.reads = append(c.reads, g)
		}
		if e.Kind == mem.Fence || ord == NA {
			continue
		}
		th := c.p.memp.Threads[e.Thread]
		if e.IsWrite() {
			lo := len(c.fences)
			for _, f := range th[:e.Index] {
				if f.Kind == mem.Fence && c.p.ord[f.GID].IsRelease() {
					c.fences = append(c.fences, f.GID)
				}
			}
			if ord.IsRelease() || len(c.fences) > lo {
				c.relW = append(c.relW, syncEnd{g, e.Thread, ord.IsRelease(), lo, len(c.fences)})
			}
		}
		if e.IsRead() {
			lo := len(c.fences)
			for _, f := range th[e.Index+1:] {
				if f.Kind == mem.Fence && c.p.ord[f.GID].IsAcquire() {
					c.fences = append(c.fences, f.GID)
				}
			}
			if ord.IsAcquire() || len(c.fences) > lo {
				c.acqR = append(c.acqR, syncEnd{g, e.Thread, ord.IsAcquire(), lo, len(c.fences)})
			}
		}
	}
}

// bind points the checker at execution x and recomputes happens-before.
// Without a synchronizes-with edge hb is sb, which is already transitive,
// so the closure runs only after addSW added one.
func (c *checker) bind(x *mem.Execution) {
	c.x = x
	copy(c.hb.bits, c.sb.bits)
	if c.addSW() {
		closure(&c.hb, c.n)
	}
}

// check runs the consistency axioms against the bound execution. The
// non-atomic axioms run only on a program with a non-atomic access:
// without one, every read is atomic (naReadsVisible passes) and every
// same-location pair is atomic (hasRace finds no race).
func (c *checker) check() (ok, racy bool) {
	if !c.coherent() {
		return false, false
	}
	if !c.scConsistent() {
		return false, false
	}
	if !c.hasNA {
		return true, false
	}
	if !c.naReadsVisible() {
		return false, false
	}
	return true, c.hasRace()
}

func mat(n int) [][]bool {
	// One flat backing array: per-row allocation showed up in cold-sweep
	// profiles.
	m := make([][]bool, n)
	back := make([]bool, n*n)
	for i := range m {
		m[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// bitmat is a dense n×n relation stored as bitset rows. Litmus programs
// have at most a few dozen events, so a row is one or two words and the
// per-candidate Floyd–Warshall closures run on whole words instead of
// byte loads.
type bitmat struct {
	ww   int // words per row
	bits []uint64
}

func newBitmat(n int) bitmat {
	ww := (n + 63) / 64
	if ww == 0 {
		ww = 1
	}
	return bitmat{ww: ww, bits: make([]uint64, n*ww)}
}

func (m *bitmat) row(i int) []uint64 { return m.bits[i*m.ww : (i+1)*m.ww] }

func (m *bitmat) get(i, j int) bool {
	return m.bits[i*m.ww+j>>6]&(1<<(uint(j)&63)) != 0
}

func (m *bitmat) set(i, j int) { m.bits[i*m.ww+j>>6] |= 1 << (uint(j) & 63) }

// closure computes the transitive closure in place (Floyd–Warshall over
// bitset rows: row i absorbs row k whenever i reaches k).
func closure(m *bitmat, n int) {
	for k := 0; k < n; k++ {
		kr := m.row(k)
		for i := 0; i < n; i++ {
			if !m.get(i, k) {
				continue
			}
			ir := m.row(i)
			for t, w := range kr {
				ir[t] |= w
			}
		}
	}
}

func (c *checker) atomic(gid int) bool { return c.p.ord[gid] != NA }

func (c *checker) isWrite(gid int) bool { return c.ev[gid].IsWrite() }
func (c *checker) isRead(gid int) bool  { return c.ev[gid].IsRead() }
func (c *checker) isFence(gid int) bool { return c.ev[gid].Kind == mem.Fence }

// releaseSequence returns the C++11 release sequence headed by write w:
// w plus the maximal contiguous run of mo-successors that are either writes
// by w's thread or atomic read-modify-writes.
func (c *checker) releaseSequence(w int) []int {
	loc := c.x.LocOf[w]
	seq := append(c.seq[:0], w)
	mo := c.x.MO[loc]
	for i := c.x.MOIndex[w]; i < len(mo); i++ { // MOIndex is 1-based: mo[idx] is the next write
		nxt := mo[i]
		if c.ev[nxt].Thread == c.ev[w].Thread || c.ev[nxt].Kind == mem.RMW {
			seq = append(seq, nxt)
			continue
		}
		break
	}
	c.seq = seq
	return seq
}

// addSW inserts synchronizes-with edges into c.hb (before closure):
// release-write → acquire-read pairs through release sequences, plus the
// C++11 fence synchronization rules, and reports whether it set a bit.
//
// A pair (w, r) of an atomic write and an atomic read of another thread,
// where r reads from w's release sequence, sets an hb bit in exactly four
// cases: w release and r acquire (w → r); r acquire and a release fence
// F sb-before w (F → r); w release and an acquire fence G sb-after r
// (w → G); F and G both present (F → G). So only a write that is a
// release or has such an F (relW), and a read that is an acquire or has
// such a G (acqR), can take part, and every such pair sets a bit. Every
// bit joins two threads, so none was in sb.
func (c *checker) addSW() bool {
	added := false
	inRS := c.inRS
	for _, w := range c.relW {
		rs := c.releaseSequence(w.gid)
		for _, m := range rs {
			inRS[m] = true
		}
		for _, r := range c.acqR {
			if r.thread == w.thread {
				continue
			}
			src := c.x.RF[r.gid]
			if src == mem.InitWrite || !inRS[src] {
				continue
			}
			added = true
			// Plain release/acquire synchronization.
			if w.ord && r.ord {
				c.hb.set(w.gid, r.gid)
			}
			// Fence rules (C++11 29.8p2-4): release fence F sequenced
			// before w, acquire read r; release write w, acquire fence G
			// sequenced after r; and F before w, G after r.
			for _, f := range c.fences[w.lo:w.hi] {
				if r.ord {
					c.hb.set(f, r.gid)
				}
				for _, g := range c.fences[r.lo:r.hi] {
					c.hb.set(f, g)
				}
			}
			if w.ord {
				for _, g := range c.fences[r.lo:r.hi] {
					c.hb.set(w.gid, g)
				}
			}
		}
		for _, m := range rs {
			inRS[m] = false
		}
	}
	return added
}

// coherent checks irreflexive(hb) and irreflexive(hb ; eco) with
// eco = (rf ∪ mo ∪ fr)+, whose rows buildEco writes in closed form.
func (c *checker) coherent() bool {
	for a := 0; a < c.n; a++ {
		if c.hb.get(a, a) {
			return false
		}
	}
	c.buildEco()
	eco := &c.eco
	for a := 0; a < c.n; a++ {
		row := c.hb.row(a)
		for wi, wv := range row {
			for wv != 0 {
				b := wi<<6 + bits.TrailingZeros64(wv)
				wv &= wv - 1
				if eco.get(b, a) {
					return false
				}
			}
		}
	}
	return true
}

// buildEco writes eco = (rf ∪ mo ∪ fr)+ into c.eco without a closure.
//
// Every candidate mem.Enumerate yields has mo total per location and
// places each RMW right after its rf source in mo (or first, when it
// reads init). Number a location's writes 1..m by mo position, with init
// at 0, and let a read's source position be its rf source's (0 for init).
// Then rf runs from position s to reads with source s, mo from position
// i to every position after i, and fr from a read with source s to every
// write after s other than the read itself. Along any path the write
// positions only grow, and:
//
//   - a write at position i reaches the writes after i (mo) and the reads
//     whose source is at position ≥ i (rf, or mo;rf);
//   - a read whose source is at position s reaches the writes after s,
//     other than itself (fr), and the reads whose source is after s
//     (fr;rf).
//
// So eco = rf ∪ mo ∪ fr ∪ mo;rf ∪ fr;rf. An RMW is both: at position
// s+1, right after its source s, the two rows agree (the writes after
// s+1, the reads whose source is ≥ s+1), and it does not reach itself.
// Without adjacency an RMW at position k > s+1 would reach a write between
// s and k by fr and come back by mo, which the rows here would miss.
//
// Each row is two suffix masks of its location, taken ww words wide:
// sufW at position p holds the writes at positions ≥ p, sufR at p the
// reads whose source is at position ≥ p. A location with m writes owns
// rows 0..m+1 of each, from ecoOff.
func (c *checker) buildEco() {
	x, ww := c.x, c.eco.ww
	rows := 0
	for l, ws := range x.MO {
		c.ecoOff[l] = rows
		rows += len(ws) + 2
	}
	c.sufW = sizedWords(c.sufW, rows*ww)
	c.sufR = sizedWords(c.sufR, rows*ww)
	sufW, sufR := c.sufW, c.sufR
	for l, ws := range x.MO {
		o := c.ecoOff[l]
		for i, w := range ws {
			sufW[(o+i+1)*ww+w>>6] |= 1 << (uint(w) & 63)
		}
	}
	for _, r := range c.reads {
		sufR[(c.ecoOff[x.LocOf[r]]+c.srcPos(r))*ww+r>>6] |= 1 << (uint(r) & 63)
	}
	for l, ws := range x.MO {
		o := c.ecoOff[l]
		for p := o + len(ws); p >= o; p-- {
			lo, hi := p*ww, (p+1)*ww
			for t := 0; t < ww; t++ {
				sufW[lo+t] |= sufW[hi+t]
				sufR[lo+t] |= sufR[hi+t]
			}
		}
	}
	for g, e := range c.ev {
		row := c.eco.row(g)
		var w, r int // the row's sufW and sufR rows
		switch {
		case e.IsWrite():
			i := c.ecoOff[x.LocOf[g]] + x.MOIndex[g]
			w, r = i+1, i
		case e.IsRead():
			s := c.ecoOff[x.LocOf[g]] + c.srcPos(g)
			w, r = s+1, s+1
		default:
			clear(row)
			continue
		}
		for t := range row {
			row[t] = sufW[w*ww+t] | sufR[r*ww+t]
		}
	}
}

// srcPos returns the mo position of read r's rf source: 0 for init.
func (c *checker) srcPos(r int) int {
	if src := c.x.RF[r]; src != mem.InitWrite {
		return c.x.MOIndex[src]
	}
	return 0
}

// sizedWords returns buf resized to n words, zeroed.
func sizedWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// moLT compares two write GIDs (or mem.InitWrite) in coherence order at a
// shared location; init precedes every real write.
func (c *checker) moLT(a, b int) bool {
	if a == mem.InitWrite {
		return b != mem.InitWrite
	}
	if b == mem.InitWrite {
		return false
	}
	return c.x.MOBefore(a, b)
}

// scConsistent searches for a strict total order S over all SC events that
// satisfies the original C11 SC axioms.
func (c *checker) scConsistent() bool {
	sc := c.scSet[:0]
	for g := 0; g < c.n; g++ {
		if c.p.ord[g] == SC {
			sc = append(sc, g)
		}
	}
	c.scSet = sc
	if len(sc) <= 1 {
		return true
	}
	k := len(sc)
	for i, g := range sc {
		c.scIdx[g] = i
	}
	// Forced edges: S consistent with hb, with mo between same-location SC
	// writes, and with rf between SC events.
	must := c.must
	for i := 0; i < k; i++ {
		clear(must[i][:k])
	}
	for i, a := range sc {
		for j, b := range sc {
			if i == j {
				continue
			}
			if c.hb.get(a, b) {
				must[i][j] = true
			}
			if c.isWrite(a) && c.isWrite(b) && c.x.SameLoc(a, b) && c.x.MOBefore(a, b) {
				must[i][j] = true
			}
		}
	}
	for _, b := range sc {
		if c.isRead(b) {
			if src := c.x.RF[b]; src != mem.InitWrite {
				if i := c.scIdx[src]; i >= 0 {
					must[i][c.scIdx[b]] = true
				}
			}
		}
	}
	// Enumerate linear extensions of must; accept if any satisfies the SC
	// read and fence restrictions.
	order := c.order[:0]
	used := c.used[:k]
	clear(used)
	var rec func() bool
	rec = func() bool {
		if len(order) == k {
			return c.scOrderOK(sc, order)
		}
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			ok := true
			for j := 0; j < k; j++ {
				if !used[j] && j != i && must[j][i] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[i] = true
			order = append(order, i)
			if rec() {
				return true
			}
			order = order[:len(order)-1]
			used[i] = false
		}
		return false
	}
	res := rec()
	for _, g := range sc {
		c.scIdx[g] = -1
	}
	return res
}

// scOrderOK checks the value restrictions of a complete candidate S.
// order[pos] = index into sc.
func (c *checker) scOrderOK(sc []int, order []int) bool {
	k := len(sc)
	pos := c.pos[:k]
	for p, i := range order {
		pos[i] = p
	}
	// c.scIdx is populated by the calling scConsistent.
	scPos := func(g int) (int, bool) {
		i := c.scIdx[g]
		if i < 0 {
			return 0, false
		}
		return pos[i], true
	}
	// (d) SC read restriction: an SC read r of location l must not read a
	// value older than the last SC write to l preceding r in S.
	for _, r := range sc {
		if !c.isRead(r) {
			continue
		}
		rp, _ := scPos(r)
		src := c.x.RF[r]
		for _, w := range sc {
			if w == r || !c.isWrite(w) || !c.x.SameLoc(w, r) {
				continue
			}
			wp, _ := scPos(w)
			if wp < rp && w != src && c.moLT(src, w) {
				return false
			}
		}
	}
	// Fence rules, C++11 [atomics.order] p4–p6. B ranges over all atomic
	// reads (not only SC ones).
	for b := 0; b < c.n; b++ {
		if !c.isRead(b) || !c.atomic(b) {
			continue
		}
		src := c.x.RF[b]
		// p4: X SC fence sequenced before B: B must not observe a value
		// older than the last same-location SC write preceding X in S.
		for _, xf := range sc {
			if !c.isFence(xf) || !c.sb.get(xf, b) {
				continue
			}
			xp, _ := scPos(xf)
			for _, w := range sc {
				if !c.isWrite(w) || !c.x.SameLoc(w, b) {
					continue
				}
				wp, _ := scPos(w)
				if wp < xp && w != src && c.moLT(src, w) {
					return false
				}
			}
		}
		// p5: atomic write A sequenced before SC fence X, B an SC read with
		// X before B in S: B observes A or something mo-later.
		if bp, bSC := scPos(b); bSC {
			for _, xf := range sc {
				if !c.isFence(xf) {
					continue
				}
				xp, _ := scPos(xf)
				if xp >= bp {
					continue
				}
				for a := 0; a < c.n; a++ {
					if c.isWrite(a) && c.atomic(a) && c.x.SameLoc(a, b) && c.sb.get(a, xf) && a != src && c.moLT(src, a) {
						return false
					}
				}
			}
		}
		// p6: write A sb X (SC fence), Y (SC fence) sb B, X before Y in S:
		// B observes A or something mo-later.
		for _, yf := range sc {
			if !c.isFence(yf) || !c.sb.get(yf, b) {
				continue
			}
			yp, _ := scPos(yf)
			for _, xf := range sc {
				if !c.isFence(xf) || xf == yf {
					continue
				}
				xp, _ := scPos(xf)
				if xp >= yp {
					continue
				}
				for a := 0; a < c.n; a++ {
					if c.isWrite(a) && c.atomic(a) && c.x.SameLoc(a, b) && c.sb.get(a, xf) && a != src && c.moLT(src, a) {
						return false
					}
				}
			}
		}
	}
	return true
}

// naReadsVisible enforces that non-atomic reads observe a visible side
// effect: a write w with w hb r and no same-location write hb-between.
func (c *checker) naReadsVisible() bool {
	for r := 0; r < c.n; r++ {
		if !c.isRead(r) || c.atomic(r) {
			continue
		}
		src := c.x.RF[r]
		if src == mem.InitWrite {
			// Init is visible unless some same-location write happens
			// before r.
			for w := 0; w < c.n; w++ {
				if c.isWrite(w) && c.x.SameLoc(w, r) && c.hb.get(w, r) {
					return false
				}
			}
			continue
		}
		if !c.hb.get(src, r) {
			return false
		}
		for w := 0; w < c.n; w++ {
			if w != src && c.isWrite(w) && c.x.SameLoc(w, r) && c.hb.get(src, w) && c.hb.get(w, r) {
				return false
			}
		}
	}
	return true
}

// hasRace reports a data race: two concurrent same-location accesses, at
// least one a write and at least one non-atomic, unordered by hb.
func (c *checker) hasRace() bool {
	for a := 0; a < c.n; a++ {
		if c.isFence(a) {
			continue
		}
		for b := a + 1; b < c.n; b++ {
			if c.isFence(b) || c.ev[a].Thread == c.ev[b].Thread {
				continue
			}
			if !c.x.SameLoc(a, b) {
				continue
			}
			if !c.isWrite(a) && !c.isWrite(b) {
				continue
			}
			if c.atomic(a) && c.atomic(b) {
				continue
			}
			if !c.hb.get(a, b) && !c.hb.get(b, a) {
				return true
			}
		}
	}
	return false
}
