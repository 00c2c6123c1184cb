// Package mem provides the execution-candidate substrate shared by the
// C11 axiomatic evaluator (internal/c11) and the microarchitectural µspec
// evaluator (internal/uspec).
//
// A program is a set of threads, each an ordered list of memory events
// (reads, writes, read-modify-writes and fences). A candidate execution
// assigns a source write to every read (the reads-from relation, rf), a
// per-location total order over writes (the coherence / modification order,
// mo), and derives the from-reads relation (fr). Values and addresses are
// resolved through per-thread registers so that address, data and control
// dependencies behave like they do in real litmus tests (e.g. the paper's
// Figure 13, where a load's address is produced by a program-order-earlier
// load).
//
// Enumeration bakes in only those facts that hold at every layer of the
// stack examined by TriCheck:
//
//   - CoWW: same-thread writes to the same location appear in mo in program
//     order (store buffers are FIFO per address; C11 requires it too),
//   - CoWR: a read never reads a write that is mo-older than the newest
//     same-thread program-order-earlier write to the same location,
//   - CoRW: a read never reads a write that is mo-after a same-thread
//     program-order-later write to the same location,
//   - RMW atomicity: a read-modify-write reads its immediate mo-predecessor.
//
// Crucially it does NOT bake in same-address read→read ordering (CoRR):
// that is exactly the ordering the paper's rMM/nMM/A9like microarchitectures
// relax (Section 5.1.3), so it must remain a per-model decision.
package mem

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Loc identifies a memory location (a litmus-test variable such as x or y).
// Locations are small dense integers; names live in the owning program.
type Loc int

// LocNone marks events (fences) that do not access memory.
const LocNone Loc = -1

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// Read is a load.
	Read Kind = iota
	// Write is a store.
	Write
	// RMW is an atomic read-modify-write: one read and one write that are
	// adjacent in coherence order.
	RMW
	// Fence is a memory fence; it does not access memory but occupies a
	// program-order slot so layer-specific models can attach semantics.
	Fence
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case RMW:
		return "RMW"
	case Fence:
		return "F"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// RMWKind selects how a read-modify-write computes its stored value.
type RMWKind uint8

const (
	// RMWAdd stores oldValue + Data. With Data == 0 this is the paper's
	// "AMOADD to the zero register" idiom for implementing an atomic load:
	// the written value equals the value read.
	RMWAdd RMWKind = iota
	// RMWSwap stores Data and discards the old value (modulo Dst); this is
	// the "AMOSWAP discarding the load" idiom for an atomic store.
	RMWSwap
)

// Apply returns the value a read-modify-write of kind k writes when it
// reads old and its data operand is data. It is the one definition of
// an RMW's written value: the enumerator and both operational machines
// call it.
func (k RMWKind) Apply(old, data int64) int64 {
	if k == RMWSwap {
		return data
	}
	return old + data
}

// OperandKind distinguishes constant operands from register operands.
type OperandKind uint8

const (
	// OpConst is an immediate constant operand.
	OpConst OperandKind = iota
	// OpReg reads the thread-local register written by a program-order
	// earlier load; using one creates a syntactic dependency.
	OpReg
)

// Operand is the value or address source of an event: either an immediate
// constant or a thread-local register (creating an address or data
// dependency on the load that last wrote the register).
type Operand struct {
	Kind  OperandKind
	Const int64
	Reg   int
}

// Const returns a constant operand.
func Const(v int64) Operand { return Operand{Kind: OpConst, Const: v} }

// FromReg returns a register operand referring to thread-local register r.
func FromReg(r int) Operand { return Operand{Kind: OpReg, Reg: r} }

// NoDst marks events that do not write a destination register.
const NoDst = -1

// Event is a single memory event. Events are created through Program.Add*
// which assigns GID, Thread and Index.
type Event struct {
	// GID is the dense global identifier of the event.
	GID int
	// Thread is the issuing thread (core) index.
	Thread int
	// Index is the event's program-order position within its thread.
	Index int
	// Kind classifies the event.
	Kind Kind
	// Addr is the accessed location: a constant Loc or a register holding
	// one (an address dependency). Unused for fences.
	Addr Operand
	// Data is the stored value for writes, or the RMW operand for RMWs.
	Data Operand
	// Dst is the thread-local register receiving a loaded value, or NoDst.
	Dst int
	// RMWOp selects the read-modify-write function for Kind == RMW.
	RMWOp RMWKind
	// CtrlDepOn lists thread-local indices of loads this event is
	// control-dependent on.
	CtrlDepOn []int
	// Tag is an opaque caller-owned value (typically an index into the
	// caller's own instruction or HLL-event list).
	Tag int
}

// IsRead reports whether the event has a read component.
func (e *Event) IsRead() bool { return e.Kind == Read || e.Kind == RMW }

// IsWrite reports whether the event has a write component.
func (e *Event) IsWrite() bool { return e.Kind == Write || e.Kind == RMW }

// Observer names one load whose result is part of a litmus test outcome.
type Observer struct {
	// Thread and Reg identify the destination register holding the value.
	Thread int
	Reg    int
	// Label is the outcome key, e.g. "r0".
	Label string
}

// MemObserver names one location whose final value is part of a litmus
// test outcome (needed by shapes like S, R and 2+2W whose interesting
// outcome constrains coherence order rather than loaded values).
type MemObserver struct {
	Loc   Loc
	Label string
}

// Program is a multi-threaded litmus-test program over shared locations.
type Program struct {
	// Threads holds the per-thread event lists in program order.
	Threads [][]*Event
	// NumLocs is the number of distinct locations (0..NumLocs-1).
	NumLocs int
	// LocNames optionally names locations for rendering ("x", "y", ...).
	LocNames []string
	// Observers lists the registers that form a final-state outcome.
	Observers []Observer
	// MemObservers lists locations whose final values join the outcome.
	MemObservers []MemObserver

	events []*Event // dense by GID
	// chunks batches Event storage: Add hands out pointers into the
	// chunk at cur and opens a fresh one when it fills, so pointers stay
	// stable and event construction costs one allocation per chunk
	// instead of one per event. Reset rewinds cur so a recycled program
	// refills the same chunks.
	chunks [][]Event
	cur    int
	// frozen flips (atomically: concurrent evaluators may Enumerate one
	// program at the same time) once enumeration begins, rejecting
	// further mutation.
	frozen atomic.Bool
}

// NewProgram returns an empty program with nlocs locations named by names
// (padded with "v<i>" if names is short).
func NewProgram(nlocs int, names ...string) *Program {
	p := &Program{}
	p.Reset(nlocs, names...)
	return p
}

// Reset empties the program for reuse with a new location set, keeping
// the event chunks and per-thread slices so a recycled program builds
// without reallocating. The caller must not retain events or thread
// slices from the previous generation.
func (p *Program) Reset(nlocs int, names ...string) {
	p.frozen.Store(false)
	for i := range p.Threads {
		p.Threads[i] = p.Threads[i][:0]
	}
	p.Threads = p.Threads[:0]
	p.events = p.events[:0]
	p.Observers = p.Observers[:0]
	p.MemObservers = p.MemObservers[:0]
	for i := range p.chunks {
		p.chunks[i] = p.chunks[i][:0]
	}
	p.cur = 0
	p.NumLocs = nlocs
	p.LocNames = p.LocNames[:0]
	for i := 0; i < nlocs; i++ {
		if i < len(names) {
			p.LocNames = append(p.LocNames, names[i])
		} else {
			p.LocNames = append(p.LocNames, fmt.Sprintf("v%d", i))
		}
	}
}

// LocName returns the display name of location l.
func (p *Program) LocName(l Loc) string {
	if l >= 0 && int(l) < len(p.LocNames) {
		return p.LocNames[l]
	}
	return fmt.Sprintf("v%d", int(l))
}

// NumThreads returns the number of threads.
func (p *Program) NumThreads() int { return len(p.Threads) }

// Events returns all events dense by GID.
func (p *Program) Events() []*Event { return p.events }

// Event returns the event with the given GID.
func (p *Program) Event(gid int) *Event { return p.events[gid] }

// Add appends ev to thread t, assigning GID/Thread/Index, and returns it.
func (p *Program) Add(t int, ev Event) *Event {
	if p.frozen.Load() {
		panic("mem: Add after enumeration began")
	}
	for len(p.Threads) <= t {
		if len(p.Threads) < cap(p.Threads) {
			// Re-expose a row truncated by Reset, keeping its capacity.
			p.Threads = p.Threads[:len(p.Threads)+1]
		} else {
			p.Threads = append(p.Threads, nil)
		}
	}
	// Fixed-size chunks: litmus-scale programs hold around a dozen
	// events, so 8 amortizes allocation count without stranding the
	// tail of a larger chunk.
	var ch *[]Event
	for {
		if p.cur == len(p.chunks) {
			p.chunks = append(p.chunks, make([]Event, 0, 8))
		}
		ch = &p.chunks[p.cur]
		if len(*ch) < cap(*ch) {
			break
		}
		p.cur++
	}
	*ch = append(*ch, ev)
	e := &(*ch)[len(*ch)-1]
	e.GID = len(p.events)
	e.Thread = t
	e.Index = len(p.Threads[t])
	p.Threads[t] = append(p.Threads[t], e)
	p.events = append(p.events, e)
	return e
}

// AddObserver registers a (thread, register) pair as an outcome observer.
func (p *Program) AddObserver(thread, reg int, label string) {
	p.Observers = append(p.Observers, Observer{Thread: thread, Reg: reg, Label: label})
}

// AddMemObserver registers a location's final value as an outcome observer.
func (p *Program) AddMemObserver(loc Loc, label string) {
	p.MemObservers = append(p.MemObservers, MemObserver{Loc: loc, Label: label})
}

// Validate checks structural well-formedness: operand registers must be
// written by a program-order-earlier load of the same thread, constant
// addresses must be in range, and control dependencies must refer to earlier
// loads. It returns the first problem found.
func (p *Program) Validate() error {
	for t, th := range p.Threads {
		written := map[int]bool{}
		for i, e := range th {
			switch e.Kind {
			case Read, Write, RMW:
				if err := p.checkOperand(t, i, e.Addr, written, "address"); err != nil {
					return err
				}
				if e.IsWrite() {
					if err := p.checkOperand(t, i, e.Data, written, "data"); err != nil {
						return err
					}
				}
			case Fence:
				// nothing to check
			}
			for _, d := range e.CtrlDepOn {
				if d < 0 || d >= i || !p.Threads[t][d].IsRead() {
					return fmt.Errorf("mem: T%d[%d]: control dependency on %d is not an earlier load", t, i, d)
				}
			}
			if e.IsRead() && e.Dst != NoDst {
				written[e.Dst] = true
			}
		}
	}
	return nil
}

func (p *Program) checkOperand(t, i int, o Operand, written map[int]bool, what string) error {
	switch o.Kind {
	case OpConst:
		if what == "address" && (o.Const < 0 || o.Const >= int64(p.NumLocs)) {
			return fmt.Errorf("mem: T%d[%d]: %s location %d out of range [0,%d)", t, i, what, o.Const, p.NumLocs)
		}
	case OpReg:
		if !written[o.Reg] {
			return fmt.Errorf("mem: T%d[%d]: %s register r%d not written by an earlier load", t, i, what, o.Reg)
		}
	}
	return nil
}

// InitWrite is the rf source of a read that reads the initial (zero) value.
const InitWrite = -1

// Execution is one candidate execution of a program: a complete rf
// assignment, a per-location coherence order and the values they induce.
// Executions are consistent with the cross-layer facts documented on the
// package (CoWW/CoWR/CoRW/RMW atomicity) but not necessarily with any
// particular memory model; layer-specific packages filter them further.
type Execution struct {
	P *Program
	// RF maps each reading event's GID to the GID of its source write, or
	// InitWrite. Non-reading events map to InitWrite.
	RF []int
	// MO holds, per location, the GIDs of that location's writes in
	// coherence order (the implicit init write precedes all of them).
	MO [][]int
	// MOIndex maps a write's GID to 1 + its position in MO of its location;
	// the implicit init write has index 0. Non-writes map to 0.
	MOIndex []int
	// LocOf is the resolved location of each event (LocNone for fences).
	LocOf []Loc
	// RVal is the value read by each reading event.
	RVal []int64
	// WVal is the value written by each writing event.
	WVal []int64
}

// SameLoc reports whether events a and b resolved to the same location.
func (x *Execution) SameLoc(a, b int) bool {
	return x.LocOf[a] != LocNone && x.LocOf[a] == x.LocOf[b]
}

// MOBefore reports whether write a precedes write b in coherence order.
// Both must be writes to the same location.
func (x *Execution) MOBefore(a, b int) bool {
	return x.MOIndex[a] < x.MOIndex[b]
}

// AppendFRSuccessors appends to dst the writes that read r is
// from-reads-ordered before — every write to r's location that is
// mo-after r's source — and returns the extended slice. Evaluators that
// visit every candidate of an enumeration sweep pass a reusable scratch
// buffer (see the Enumerate visitor contract).
func (x *Execution) AppendFRSuccessors(r int, dst []int) []int {
	loc := x.LocOf[r]
	if loc == LocNone {
		return dst
	}
	src := x.RF[r]
	srcIdx := 0
	if src != InitWrite {
		srcIdx = x.MOIndex[src]
	}
	for _, w := range x.MO[loc] {
		if x.MOIndex[w] > srcIdx && w != r {
			dst = append(dst, w)
		}
	}
	return dst
}

// RegValue returns the final value of thread t's register r (the value read
// by the last load of t with Dst == r), or 0 if never written.
func (x *Execution) RegValue(t, r int) int64 {
	var v int64
	for _, e := range x.P.Threads[t] {
		if e.IsRead() && e.Dst == r {
			v = x.RVal[e.GID]
		}
	}
	return v
}

// Outcome is the canonical final-state key of an execution with respect to
// a program's observers: "label=value" pairs joined by "; " in observer
// declaration order (register observers first, then memory observers).
type Outcome string

// OutcomeOf computes the observer outcome of the execution.
func (x *Execution) OutcomeOf() Outcome {
	return x.P.RenderOutcome(x.RegValue, x.finalValue)
}

// finalValue returns location l's final value: the value of its
// mo-maximal write, or 0 if the location is never written.
func (x *Execution) finalValue(l Loc) int64 {
	if ws := x.MO[l]; len(ws) > 0 {
		return x.WVal[ws[len(ws)-1]]
	}
	return 0
}

// RenderOutcome renders a final state of p as its Outcome: reg(t, r)
// is thread t's register r, final(l) the final value of location l.
func (p *Program) RenderOutcome(reg func(t, r int) int64, final func(Loc) int64) Outcome {
	b := make([]byte, 0, 16*(len(p.Observers)+len(p.MemObservers)))
	for _, o := range p.Observers {
		b = appendOutcomePart(b, o.Label, reg(o.Thread, o.Reg))
	}
	for _, m := range p.MemObservers {
		b = appendOutcomePart(b, m.Label, final(m.Loc))
	}
	return Outcome(b)
}

// appendOutcomePart appends one "label=value" pair, "; "-separated from
// whatever precedes it.
func appendOutcomePart(b []byte, label string, v int64) []byte {
	if len(b) > 0 {
		b = append(b, ';', ' ')
	}
	b = append(b, label...)
	b = append(b, '=')
	return strconv.AppendInt(b, v, 10)
}

// String renders the execution compactly for debugging.
func (x *Execution) String() string {
	var b strings.Builder
	b.WriteString("rf{")
	first := true
	for gid, src := range x.RF {
		if !x.P.events[gid].IsRead() {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		if src == InitWrite {
			fmt.Fprintf(&b, "e%d<-init", gid)
		} else {
			fmt.Fprintf(&b, "e%d<-e%d", gid, src)
		}
	}
	b.WriteString("} mo{")
	for l, ws := range x.MO {
		if len(ws) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:", x.P.LocName(Loc(l)))
		for i, w := range ws {
			if i > 0 {
				b.WriteString("<")
			}
			fmt.Fprintf(&b, "e%d", w)
		}
		b.WriteString(" ")
	}
	b.WriteString("}")
	return b.String()
}
