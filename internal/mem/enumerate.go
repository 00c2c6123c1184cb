package mem

import (
	"errors"
	"fmt"
	"sync"
)

// ErrStopped is returned by Enumerate when the visitor requested an early
// stop; callers that stop deliberately usually ignore it.
var ErrStopped = errors.New("mem: enumeration stopped by visitor")

// ErrUnresolvable is returned when a register-carried address can never be
// resolved (a cross-thread value dependency cycle); litmus tests in this
// repository never trigger it.
var ErrUnresolvable = errors.New("mem: unresolvable register-carried address")

// Enumerate visits every candidate execution of p (see the package comment
// for exactly which consistency facts are baked in). The visitor may return
// false to stop enumeration early, in which case Enumerate returns
// ErrStopped.
//
// Visitor contract: the Execution passed to visit is a scratch value owned
// by the enumerator and reused for every candidate — its slices (RF, MO,
// MOIndex, LocOf, RVal, WVal) are overwritten between calls. A visitor may
// read it freely for the duration of the call (evaluators are expected to
// borrow it zero-copy, e.g. to layer per-execution µhb overlay edges over
// a static skeleton) but must Clone anything it retains afterwards.
// AppendFRSuccessors takes the visitor's own scratch buffer, so reading
// from-reads successors allocates nothing per candidate.
func Enumerate(p *Program, visit func(*Execution) bool) error {
	if err := p.Validate(); err != nil {
		return err
	}
	p.frozen.Store(true)
	en := enumeratorPool.Get().(*enumerator)
	en.init(p, visit)
	en.assignReads()
	err := en.err
	if en.stopped {
		err = ErrStopped
	} else if err == nil && !en.yielded && en.deadEnd {
		err = fmt.Errorf("%w (thread values feed addresses cyclically)", ErrUnresolvable)
	}
	en.p, en.visit, en.x.P = nil, nil, nil
	enumeratorPool.Put(en)
	return err
}

// enumeratorPool recycles enumerator scratch across evaluations: a cold
// sweep runs two short enumerations per job (C11 and µspec), so the
// per-run buffer setup is a measurable slice of its allocation profile.
var enumeratorPool = sync.Pool{New: func() any { return new(enumerator) }}

// Executions collects all candidate executions of p. Each returned
// Execution is an independent copy.
func Executions(p *Program) ([]*Execution, error) {
	var out []*Execution
	err := Enumerate(p, func(x *Execution) bool {
		out = append(out, x.Clone())
		return true
	})
	return out, err
}

// Outcomes returns the set of observer outcomes over all candidate
// executions (before any memory-model filtering).
func Outcomes(p *Program) (map[Outcome]bool, error) {
	out := map[Outcome]bool{}
	err := Enumerate(p, func(x *Execution) bool {
		out[x.OutcomeOf()] = true
		return true
	})
	return out, err
}

// Clone returns a deep copy of the execution.
func (x *Execution) Clone() *Execution {
	c := &Execution{
		P:       x.P,
		RF:      append([]int(nil), x.RF...),
		MOIndex: append([]int(nil), x.MOIndex...),
		LocOf:   append([]Loc(nil), x.LocOf...),
		RVal:    append([]int64(nil), x.RVal...),
		WVal:    append([]int64(nil), x.WVal...),
	}
	c.MO = make([][]int, len(x.MO))
	for i := range x.MO {
		c.MO[i] = append([]int(nil), x.MO[i]...)
	}
	return c
}

const rfUnassigned = -2

type enumerator struct {
	p       *Program
	visit   func(*Execution) bool
	stopped bool
	err     error
	yielded bool // at least one execution reached the visitor
	deadEnd bool // some branch was pruned as value-unresolvable

	reads  []*Event // reading events, (thread, index) order
	writes []*Event // writing events, gid order
	rf     []int    // by gid; rfUnassigned until chosen
	done   []bool   // by position in reads

	// Reused scratch. The enumeration inner loops are allocation-free in
	// steady state: value resolution marks visiting (entries are always
	// cleared on exit, so the slice is all-false between top-level
	// calls), finishReads groups writes into byLoc rows and stamps RMW
	// sources with seenEpoch instead of filling fresh maps, and each
	// location's permutation state lives in permBuf/usedBuf.
	visiting   []bool
	constLoc   []Loc   // by gid: constant-address location (or fence LocNone)
	constLocOK []bool  // by gid: constLoc is valid, skip operand resolution
	constWVal  []int64 // by gid: constant plain-write value
	constWOK   []bool  // by gid: constWVal is valid
	byLoc      [][]int
	seenEp     []int32 // by write gid: seenEpoch when seen as an RMW source
	seenInitEp []int32 // by location: seenEpoch when an init-reading RMW was seen
	seenEpoch  int32
	permBuf    [][]int
	usedBuf    [][]bool

	x Execution // scratch execution handed to the visitor
}

// sized returns buf resized to n elements, zeroed — reusing its backing
// array when the capacity allows.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// sizedRows resizes a slice-of-rows to n, preserving the backing arrays
// of surviving rows (callers reslice rows to [:0] before use).
func sizedRows[T any](rows [][]T, n int) [][]T {
	if cap(rows) < n {
		return make([][]T, n)
	}
	return rows[:n]
}

// init (re)binds pooled enumerator scratch to a program, reusing every
// buffer whose capacity still fits.
func (en *enumerator) init(p *Program, visit func(*Execution) bool) {
	en.p, en.visit = p, visit
	en.stopped, en.err, en.yielded, en.deadEnd = false, nil, false, false
	en.seenEpoch = 0
	en.reads = en.reads[:0]
	en.writes = en.writes[:0]
	for _, e := range p.events {
		if e.IsRead() {
			en.reads = append(en.reads, e)
		}
		if e.IsWrite() {
			en.writes = append(en.writes, e)
		}
	}
	// (thread, index) order; the key is unique per event, so any sort
	// yields the order sortedByPO produced. Insertion sort: litmus-scale
	// event counts, no closure/swapper allocation.
	for i := 1; i < len(en.reads); i++ {
		for j := i; j > 0; j-- {
			a, b := en.reads[j-1], en.reads[j]
			if a.Thread < b.Thread || (a.Thread == b.Thread && a.Index < b.Index) {
				break
			}
			en.reads[j-1], en.reads[j] = b, a
		}
	}
	en.rf = sized(en.rf, len(p.events))
	for i := range en.rf {
		en.rf[i] = rfUnassigned
	}
	en.done = sized(en.done, len(en.reads))
	en.visiting = sized(en.visiting, len(p.events))
	// Constant-operand precomputation: litmus-scale programs address
	// memory almost exclusively through constants, so location and plain-
	// write value resolution — the innermost per-candidate queries — are
	// answered from these tables instead of re-walking operand chains.
	en.constLoc = sized(en.constLoc, len(p.events))
	en.constLocOK = sized(en.constLocOK, len(p.events))
	en.constWVal = sized(en.constWVal, len(p.events))
	en.constWOK = sized(en.constWOK, len(p.events))
	for _, e := range p.events {
		if e.Kind == Fence {
			en.constLoc[e.GID], en.constLocOK[e.GID] = LocNone, true
		} else if e.Addr.Kind == OpConst {
			en.constLoc[e.GID], en.constLocOK[e.GID] = Loc(e.Addr.Const), true
		}
		if e.Kind == Write && e.Data.Kind == OpConst {
			en.constWVal[e.GID], en.constWOK[e.GID] = e.Data.Const, true
		}
	}
	en.byLoc = sizedRows(en.byLoc, p.NumLocs)
	en.seenEp = sized(en.seenEp, len(p.events))
	en.seenInitEp = sized(en.seenInitEp, p.NumLocs)
	en.permBuf = sizedRows(en.permBuf, p.NumLocs)
	en.usedBuf = sizedRows(en.usedBuf, p.NumLocs)
	en.x.P = p
	en.x.MO = sizedRows(en.x.MO, p.NumLocs)
	en.x.RF = nil
	en.x.MOIndex = sized(en.x.MOIndex, len(p.events))
	en.x.LocOf = sized(en.x.LocOf, len(p.events))
	en.x.RVal = sized(en.x.RVal, len(p.events))
	en.x.WVal = sized(en.x.WVal, len(p.events))
}

// operandValue resolves an operand evaluated by thread t at program-order
// position idx under the current partial rf assignment. The second result
// is false while the value still depends on an unassigned read.
func (en *enumerator) operandValue(t, idx int, op Operand) (int64, bool) {
	if op.Kind == OpConst {
		return op.Const, true
	}
	// Find the latest earlier load of this thread writing the register.
	th := en.p.Threads[t]
	for i := idx - 1; i >= 0; i-- {
		e := th[i]
		if e.IsRead() && e.Dst == op.Reg {
			return en.readValue(e.GID)
		}
	}
	return 0, false // unreachable after Validate
}

// readValue resolves the value read by event gid, if determined. The
// visiting marks are always cleared on exit, so en.visiting is all-false
// between top-level resolutions.
func (en *enumerator) readValue(gid int) (int64, bool) {
	if en.visiting[gid] {
		return 0, false // value-dependency cycle (out of thin air)
	}
	src := en.rf[gid]
	switch src {
	case rfUnassigned:
		return 0, false
	case InitWrite:
		return 0, true
	}
	en.visiting[gid] = true
	v, ok := en.writeValue(src)
	en.visiting[gid] = false
	return v, ok
}

// writeValue resolves the value written by event gid, if determined.
func (en *enumerator) writeValue(gid int) (int64, bool) {
	if en.constWOK[gid] {
		return en.constWVal[gid], true
	}
	e := en.p.events[gid]
	data, ok := en.operandValue(e.Thread, e.Index, e.Data)
	if !ok {
		return 0, false
	}
	if e.Kind == Write {
		return data, true
	}
	// RMW
	old, ok := en.readValue(gid)
	if !ok {
		return 0, false
	}
	return e.RMWOp.Apply(old, data), true
}

// eventLoc resolves the location accessed by event gid, if determined.
func (en *enumerator) eventLoc(gid int) (Loc, bool) {
	if en.constLocOK[gid] {
		return en.constLoc[gid], true
	}
	e := en.p.events[gid]
	v, ok := en.operandValue(e.Thread, e.Index, e.Addr)
	if !ok {
		return LocNone, false
	}
	return Loc(v), true
}

// assignReads recursively chooses an rf source for every reading event.
// At each step it picks the first (thread, index)-ordered unassigned read
// whose address is already resolvable, so that address dependencies chain
// naturally; writes whose own location is not yet resolvable are offered as
// candidates optimistically and checked once everything is assigned.
func (en *enumerator) assignReads() {
	if en.stopped || en.err != nil {
		return
	}
	pick := -1
	var pickLoc Loc
	sawUnassigned := false
	for i, r := range en.reads {
		if en.done[i] {
			continue
		}
		sawUnassigned = true
		if loc, ok := en.eventLoc(r.GID); ok {
			if loc < 0 || int(loc) >= en.p.NumLocs {
				return // resolved to a non-location value: invalid branch
			}
			pick, pickLoc = i, loc
			break
		}
	}
	if !sawUnassigned {
		en.finishReads()
		return
	}
	if pick == -1 {
		// Reads remain but none is resolvable on this branch: a value
		// dependency cycle (out of thin air) induced by the optimistic rf
		// choices so far. Prune the branch; if the whole enumeration ends
		// this way, Enumerate reports ErrUnresolvable.
		en.deadEnd = true
		return
	}
	r := en.reads[pick]
	en.done[pick] = true
	// Candidate sources: the initial value plus every write whose location
	// is (or may turn out to be) pickLoc.
	en.rf[r.GID] = InitWrite
	en.assignReads()
	for _, w := range en.writes {
		if en.stopped || en.err != nil {
			break
		}
		if w.GID == r.GID {
			continue
		}
		wloc, ok := en.eventLoc(w.GID)
		if ok && wloc != pickLoc {
			continue
		}
		en.rf[r.GID] = w.GID
		en.assignReads()
	}
	en.rf[r.GID] = rfUnassigned
	en.done[pick] = false
}

// finishReads validates the completed rf assignment (deferred location
// checks) and proceeds to coherence-order enumeration.
func (en *enumerator) finishReads() {
	p := en.p
	for _, e := range p.events {
		loc, ok := en.eventLoc(e.GID)
		if !ok || (e.Kind != Fence && (loc < 0 || int(loc) >= p.NumLocs)) {
			return // still unresolved or invalid: reject branch
		}
		en.x.LocOf[e.GID] = loc
	}
	for _, r := range en.reads {
		if src := en.rf[r.GID]; src != InitWrite {
			if en.x.LocOf[src] != en.x.LocOf[r.GID] {
				return // optimistic candidate turned out to mismatch
			}
		}
	}
	// Group writes by resolved location (rows reuse their backing arrays
	// across candidates).
	byLoc := en.byLoc
	for l := range byLoc {
		byLoc[l] = byLoc[l][:0]
	}
	for _, w := range en.writes {
		l := en.x.LocOf[w.GID]
		byLoc[l] = append(byLoc[l], w.GID)
	}
	// Reject if two RMWs read from the same source: atomicity would force
	// both to immediately follow it in mo. Epoch stamps replace the
	// per-call seen-source map.
	en.seenEpoch++
	for _, w := range en.writes {
		if w.Kind != RMW {
			continue
		}
		src := en.rf[w.GID]
		if src == InitWrite {
			// Two init-reading RMWs on the same location also conflict.
			l := en.x.LocOf[w.GID]
			if en.seenInitEp[l] == en.seenEpoch {
				return
			}
			en.seenInitEp[l] = en.seenEpoch
			continue
		}
		if en.seenEp[src] == en.seenEpoch {
			return
		}
		en.seenEp[src] = en.seenEpoch
	}
	en.enumerateMO(byLoc, 0)
}

// enumerateMO enumerates per-location coherence orders consistent with
// program order (CoWW) and RMW atomicity, location by location.
func (en *enumerator) enumerateMO(byLoc [][]int, l int) {
	if en.stopped || en.err != nil {
		return
	}
	if l == len(byLoc) {
		en.finishExecution()
		return
	}
	ws := byLoc[l]
	if len(ws) == 0 {
		en.x.MO[l] = nil
		en.enumerateMO(byLoc, l+1)
		return
	}
	// Permutation state reuses per-location buffers; the backtracking
	// discipline leaves used all-false and perm empty on exit.
	if cap(en.permBuf[l]) < len(ws) {
		en.permBuf[l] = make([]int, 0, len(ws))
		en.usedBuf[l] = make([]bool, len(ws))
	}
	perm := en.permBuf[l][:0]
	used := en.usedBuf[l][:len(ws)]
	var rec func()
	rec = func() {
		if en.stopped || en.err != nil {
			return
		}
		if len(perm) == len(ws) {
			en.x.MO[l] = perm
			for i, w := range perm {
				en.x.MOIndex[w] = i + 1
			}
			en.enumerateMO(byLoc, l+1)
			return
		}
		// If an unplaced RMW reads from the most recently placed write (or
		// from init at position 0), it must come next.
		forced := -1
		var prev int // source a next-placed RMW must have
		if len(perm) == 0 {
			prev = InitWrite
		} else {
			prev = perm[len(perm)-1]
		}
		for i, w := range ws {
			if used[i] {
				continue
			}
			e := en.p.events[w]
			if e.Kind == RMW && en.rf[w] == prev {
				// Only force if prev is actually this RMW's source; for
				// init sources this only applies at position 0.
				if prev != InitWrite || len(perm) == 0 {
					forced = i
					break
				}
			}
		}
		for i, w := range ws {
			if used[i] {
				continue
			}
			if forced >= 0 && i != forced {
				continue
			}
			e := en.p.events[w]
			// CoWW: same-thread writes to this location in program order.
			ok := true
			for j, w2 := range ws {
				if !used[j] && j != i && en.p.events[w2].Thread == e.Thread && en.p.events[w2].Index < e.Index {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// RMW atomicity: an RMW may only be placed right after its
			// source (or first, if it reads init).
			if e.Kind == RMW && en.rf[w] != prev {
				continue
			}
			// Conversely, if the previous write is some RMW's source, only
			// that RMW may follow (forced above); additionally no placed
			// RMW may be followed by a write that breaks adjacency — the
			// "forced" rule already guarantees this.
			used[i] = true
			perm = append(perm, w)
			rec()
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec()
}

// finishExecution applies the CoWR/CoRW filters, resolves all values and
// hands the candidate to the visitor.
func (en *enumerator) finishExecution() {
	p := en.p
	x := &en.x
	// CoWR / CoRW with respect to same-thread writes.
	for _, r := range en.reads {
		loc := x.LocOf[r.GID]
		srcIdx := 0
		if s := en.rf[r.GID]; s != InitWrite {
			srcIdx = x.MOIndex[s]
		}
		for _, e := range p.Threads[r.Thread] {
			if !e.IsWrite() || e.GID == r.GID || x.LocOf[e.GID] != loc {
				continue
			}
			if e.Index < r.Index && x.MOIndex[e.GID] > srcIdx {
				return // CoWR: read an older value than our own prior write
			}
			if e.Index > r.Index && x.MOIndex[e.GID] <= srcIdx {
				return // CoRW: read our own (or a newer-than-own) later write
			}
		}
	}
	// Resolve all values; reject executions with undetermined values
	// (out-of-thin-air cycles).
	for _, r := range en.reads {
		v, ok := en.readValue(r.GID)
		if !ok {
			return
		}
		x.RVal[r.GID] = v
	}
	for _, w := range en.writes {
		v, ok := en.writeValue(w.GID)
		if !ok {
			return
		}
		x.WVal[w.GID] = v
	}
	x.RF = en.rf
	en.yielded = true
	if !en.visit(x) {
		en.stopped = true
	}
}
