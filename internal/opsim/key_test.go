package opsim

import (
	"bytes"
	"testing"

	"tricheck/internal/mem"
)

// checkKeys requires distinct keys for a pair of states that differ in
// one component, and the first state's exact key for its clones: one
// into a blank state, one into a recycled state that held the second.
func checkKeys(t *testing.T, name string, ka, kb, blankClone, recycledClone []byte) {
	t.Helper()
	if bytes.Equal(ka, kb) {
		t.Errorf("%s: both states have key %x", name, ka)
	}
	if !bytes.Equal(blankClone, ka) {
		t.Errorf("%s: clone key %x, want %x", name, blankClone, ka)
	}
	if !bytes.Equal(recycledClone, ka) {
		t.Errorf("%s: recycled clone key %x, want %x", name, recycledClone, ka)
	}
}

// TestStateKeyDistinguishes pins the visited-set encodings of both
// machines against the collisions a careless encoding invites: empty vs.
// zero entries, which thread owns an entry, where one slice ends and the
// next begins, sign, and optional fields.
func TestStateKeyDistinguishes(t *testing.T) {
	wr := func(edit func(*state)) *state {
		st := &state{
			pc:   []int{0, 0},
			regs: [][]int64{{0, 0}, {0}},
			sb:   [][]sbEntry{nil, nil},
			mem:  []int64{0},
		}
		if edit != nil {
			edit(st)
		}
		return st
	}
	for _, p := range []struct {
		name string
		a, b *state
	}{
		{"empty vs. {x,0} buffered", wr(nil), wr(func(s *state) { s.sb[0] = []sbEntry{{0, 0}} })},
		{"entry in thread 0 vs. thread 1", wr(func(s *state) { s.sb[0] = []sbEntry{{0, 1}} }),
			wr(func(s *state) { s.sb[1] = []sbEntry{{0, 1}} })},
		{"register split", wr(nil), wr(func(s *state) { s.regs = [][]int64{{0}, {0, 0}} })},
		{"negative vs. positive register", wr(func(s *state) { s.regs[0][0] = -1 }),
			wr(func(s *state) { s.regs[0][0] = 1 })},
		{"negative vs. positive memory", wr(func(s *state) { s.mem[0] = -1 }),
			wr(func(s *state) { s.mem[0] = 1 })},
	} {
		checkKeys(t, p.name, p.a.appendKey(nil), p.b.appendKey(nil),
			p.a.cloneInto(&state{}).appendKey(nil), p.a.cloneInto(p.b).appendKey(nil))
	}

	// nWR states are built in their simulator's layout: every row is a
	// window of its state's arrays, so edits append within the windows.
	shape := func(regs ...int) *nshape {
		return &nshape{regs: regs, sb: []int{1, 1}, locs: 1, writes: 1}
	}
	twoOne := shape(2, 1)
	nwrIn := func(sh *nshape, edit func(*nstate)) *nstate {
		st := sh.newState()
		if edit != nil {
			edit(st)
		}
		return st
	}
	nwr := func(edit func(*nstate)) *nstate { return nwrIn(twoOne, edit) }
	drainedWrite := func(val int64, atomic bool) func(*nstate) {
		return func(s *nstate) {
			s.writes = append(s.writes, drained{loc: 0, val: val, src: 0, srcSeq: 0, atomic: atomic})
			s.order[0] = append(s.order[0], 0)
			s.applied[0][0] = 1
			s.drainSeq[0] = 1
		}
	}
	for _, p := range []struct {
		name string
		a, b *nstate
	}{
		{"empty vs. {x,0} buffered", nwr(nil), nwr(func(s *nstate) { s.sb[0] = append(s.sb[0], sbEntry{0, 0}) })},
		{"entry in thread 0 vs. thread 1", nwr(func(s *nstate) { s.sb[0] = append(s.sb[0], sbEntry{0, 1}) }),
			nwr(func(s *nstate) { s.sb[1] = append(s.sb[1], sbEntry{0, 1}) })},
		{"register split", nwr(nil), nwrIn(shape(1, 2), nil)},
		{"negative vs. positive write", nwr(drainedWrite(-1, false)), nwr(drainedWrite(1, false))},
		{"drained write's atomic flag", nwr(drainedWrite(1, false)), nwr(drainedWrite(1, true))},
		{"pending nil vs. {x,0}", nwr(nil), nwr(func(s *nstate) { s.pending[0] = pendingAtomic{set: true} })},
		{"pending in thread 0 vs. thread 1", nwr(func(s *nstate) { s.pending[0] = pendingAtomic{set: true} }),
			nwr(func(s *nstate) { s.pending[1] = pendingAtomic{set: true} })},
		{"pending swap vs. add", nwr(func(s *nstate) { s.pending[0] = pendingAtomic{data: 1, op: mem.RMWSwap, set: true} }),
			nwr(func(s *nstate) { s.pending[0] = pendingAtomic{data: 1, op: mem.RMWAdd, set: true} })},
	} {
		checkKeys(t, p.name, p.a.appendKey(nil), p.b.appendKey(nil),
			p.a.cloneInto(&nstate{}).appendKey(nil), p.a.cloneInto(p.b).appendKey(nil))
	}
}
