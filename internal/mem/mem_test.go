package mem

import (
	"testing"
)

// twoThreadMP builds the classic message-passing skeleton:
// T0: x=1; y=1    T1: r0=y; r1=x
func twoThreadMP() *Program {
	p := NewProgram(2, "x", "y")
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	p.Add(0, Event{Kind: Write, Addr: Const(1), Data: Const(1)})
	p.Add(1, Event{Kind: Read, Addr: Const(1), Dst: 0})
	p.Add(1, Event{Kind: Read, Addr: Const(0), Dst: 1})
	p.AddObserver(1, 0, "r0")
	p.AddObserver(1, 1, "r1")
	return p
}

func TestMPEnumerationOutcomes(t *testing.T) {
	p := twoThreadMP()
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	// Each load independently reads init or the single write: 4 outcomes.
	want := []Outcome{"r0=0; r1=0", "r0=0; r1=1", "r0=1; r1=0", "r0=1; r1=1"}
	if len(got) != len(want) {
		t.Fatalf("got %d outcomes %v, want %d", len(got), got, len(want))
	}
	for _, o := range want {
		if !got[o] {
			t.Errorf("missing outcome %q", o)
		}
	}
}

func TestMPExecutionCount(t *testing.T) {
	p := twoThreadMP()
	xs, err := Executions(p)
	if err != nil {
		t.Fatalf("Executions: %v", err)
	}
	// 2 rf choices per load, single write per location so one mo each: 4.
	if len(xs) != 4 {
		t.Fatalf("got %d executions, want 4", len(xs))
	}
	for _, x := range xs {
		if x.P != p {
			t.Errorf("execution does not reference program")
		}
	}
}

func TestSameThreadCoWR(t *testing.T) {
	// T0: x=1; r0=x  — the read must see 1 (its own write), never init.
	p := NewProgram(1, "x")
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	p.Add(0, Event{Kind: Read, Addr: Const(0), Dst: 0})
	p.AddObserver(0, 0, "r0")
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	if len(got) != 1 || !got["r0=1"] {
		t.Fatalf("CoWR violated: outcomes %v, want only r0=1", got)
	}
}

func TestSameThreadCoRW(t *testing.T) {
	// T0: r0=x; x=1 — the read must not see the later write.
	p := NewProgram(1, "x")
	p.Add(0, Event{Kind: Read, Addr: Const(0), Dst: 0})
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	p.AddObserver(0, 0, "r0")
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	if len(got) != 1 || !got["r0=0"] {
		t.Fatalf("CoRW violated: outcomes %v, want only r0=0", got)
	}
}

func TestSameAddressReadReadNotBakedIn(t *testing.T) {
	// T0: x=1; x=2   T1: r0=x; r1=x.
	// The substrate must keep executions where T1 sees 2 then 1 (CoRR is a
	// per-model decision, not a substrate fact).
	p := NewProgram(1, "x")
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(2)})
	p.Add(1, Event{Kind: Read, Addr: Const(0), Dst: 0})
	p.Add(1, Event{Kind: Read, Addr: Const(0), Dst: 1})
	p.AddObserver(1, 0, "r0")
	p.AddObserver(1, 1, "r1")
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	if !got["r0=2; r1=1"] {
		t.Fatalf("expected CoRR-violating candidate to exist, outcomes: %v", got)
	}
	// 3 values per load: 9 outcomes.
	if len(got) != 9 {
		t.Fatalf("got %d outcomes, want 9: %v", len(got), got)
	}
}

func TestCoWWProgramOrderInMO(t *testing.T) {
	// Same-thread same-location writes must appear in mo in program order.
	p := NewProgram(1, "x")
	a := p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	b := p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(2)})
	p.AddMemObserver(0, "x")
	xs, err := Executions(p)
	if err != nil {
		t.Fatalf("Executions: %v", err)
	}
	if len(xs) != 1 {
		t.Fatalf("got %d executions, want 1", len(xs))
	}
	if !xs[0].MOBefore(a.GID, b.GID) {
		t.Fatalf("CoWW violated: mo = %v", xs[0].MO)
	}
	if got := xs[0].OutcomeOf(); got != "x=2" {
		t.Fatalf("outcome %q, want x=2", got)
	}
}

func TestRMWAtomicity(t *testing.T) {
	// T0: fetch-and-add x += 10;  T1: fetch-and-add x += 100.
	// The two RMWs must chain: outcomes {0,10} or {0,100} for the old
	// values, never both reading 0.
	p := NewProgram(1, "x")
	p.Add(0, Event{Kind: RMW, Addr: Const(0), Data: Const(10), Dst: 0, RMWOp: RMWAdd})
	p.Add(1, Event{Kind: RMW, Addr: Const(0), Data: Const(100), Dst: 0, RMWOp: RMWAdd})
	p.AddObserver(0, 0, "a")
	p.AddObserver(1, 0, "b")
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	want := map[Outcome]bool{"a=0; b=10": true, "a=100; b=0": true}
	if len(got) != len(want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}
	for o := range want {
		if !got[o] {
			t.Errorf("missing outcome %q", o)
		}
	}
}

func TestRMWSwapValue(t *testing.T) {
	// T0: swap x <- 7 (old into r0); final memory must be 7, r0 = 0.
	p := NewProgram(1, "x")
	p.Add(0, Event{Kind: RMW, Addr: Const(0), Data: Const(7), Dst: 0, RMWOp: RMWSwap})
	p.AddObserver(0, 0, "r0")
	p.AddMemObserver(0, "x")
	xs, err := Executions(p)
	if err != nil {
		t.Fatalf("Executions: %v", err)
	}
	if len(xs) != 1 {
		t.Fatalf("got %d executions, want 1", len(xs))
	}
	if got := xs[0].OutcomeOf(); got != "r0=0; x=7" {
		t.Errorf("outcome %q, want r0=0; x=7", got)
	}
}

func TestAddressDependency(t *testing.T) {
	// Figure 13 flavour: T0: y = 0-or-1 selects which location T1 reads.
	// Locations: 0 = x (holds 42 after T0), 1 = y (holds 0, the index of x
	// via init... we store the location id directly).
	// T0: x(loc0)=42; y(loc1)=0   T1: r0 = y; r1 = [r0]
	p := NewProgram(2, "x", "y")
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(42)})
	p.Add(0, Event{Kind: Write, Addr: Const(1), Data: Const(0)}) // stores loc id of x
	p.Add(1, Event{Kind: Read, Addr: Const(1), Dst: 0})
	p.Add(1, Event{Kind: Read, Addr: FromReg(0), Dst: 1})
	p.AddObserver(1, 0, "r0")
	p.AddObserver(1, 1, "r1")
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	// r0 is 0 either way (init y = 0 and T0 stores 0): the dependent read
	// always targets x, seeing 0 or 42.
	want := map[Outcome]bool{"r0=0; r1=0": true, "r0=0; r1=42": true}
	for o := range want {
		if !got[o] {
			t.Errorf("missing outcome %q in %v", o, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("outcomes %v, want exactly %v", got, want)
	}
}

func TestAddressDependencySelectsLocation(t *testing.T) {
	// T1's second read targets x or y depending on what the first read saw.
	// T0: y(loc1)=1 stores "1" which is also the loc id of y.
	p := NewProgram(2, "x", "y")
	p.Add(0, Event{Kind: Write, Addr: Const(1), Data: Const(1)})
	p.Add(1, Event{Kind: Read, Addr: Const(1), Dst: 0})   // r0 = y: 0 or 1
	p.Add(1, Event{Kind: Read, Addr: FromReg(0), Dst: 1}) // reads x if 0, y if 1
	p.AddObserver(1, 0, "r0")
	p.AddObserver(1, 1, "r1")
	got, err := Outcomes(p)
	if err != nil {
		t.Fatalf("Outcomes: %v", err)
	}
	// r0=0 -> second read reads x (always 0): "r0=0; r1=0"
	// r0=1 -> second read reads y: may see init 0? Same-address CoRR not
	// baked in, but rf options are init (0) or the write (1).
	want := map[Outcome]bool{"r0=0; r1=0": true, "r0=1; r1=0": true, "r0=1; r1=1": true}
	for o := range want {
		if !got[o] {
			t.Errorf("missing outcome %q in %v", o, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("outcomes %v, want exactly %v", got, want)
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProgram(1, "x")
	p.Add(0, Event{Kind: Read, Addr: FromReg(3), Dst: 0})
	if err := p.Validate(); err == nil {
		t.Errorf("want error for unwritten register address")
	}
	p2 := NewProgram(1, "x")
	p2.Add(0, Event{Kind: Write, Addr: Const(5), Data: Const(1)})
	if err := p2.Validate(); err == nil {
		t.Errorf("want error for out-of-range address")
	}
	p3 := NewProgram(1, "x")
	p3.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1), CtrlDepOn: []int{0}})
	if err := p3.Validate(); err == nil {
		t.Errorf("want error for control dependency on self")
	}
}

func TestEnumerateStop(t *testing.T) {
	p := twoThreadMP()
	n := 0
	err := Enumerate(p, func(*Execution) bool {
		n++
		return false
	})
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 1 {
		t.Fatalf("visited %d, want 1", n)
	}
}

func TestFencesDoNotAffectCandidates(t *testing.T) {
	p := twoThreadMP()
	base, err := Executions(p)
	if err != nil {
		t.Fatalf("Executions: %v", err)
	}
	q := NewProgram(2, "x", "y")
	q.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	q.Add(0, Event{Kind: Fence})
	q.Add(0, Event{Kind: Write, Addr: Const(1), Data: Const(1)})
	q.Add(1, Event{Kind: Read, Addr: Const(1), Dst: 0})
	q.Add(1, Event{Kind: Fence})
	q.Add(1, Event{Kind: Read, Addr: Const(0), Dst: 1})
	q.AddObserver(1, 0, "r0")
	q.AddObserver(1, 1, "r1")
	fenced, err := Executions(q)
	if err != nil {
		t.Fatalf("Executions: %v", err)
	}
	if len(base) != len(fenced) {
		t.Fatalf("fences changed candidate count: %d vs %d", len(base), len(fenced))
	}
}

// TestExecutionInvariants checks structural invariants over every candidate
// of a write-heavy program: rf sources write the read's location, MOIndex is
// consistent with MO, and fr successors are mo-after the source.
func TestExecutionInvariants(t *testing.T) {
	p := NewProgram(2, "x", "y")
	p.Add(0, Event{Kind: Write, Addr: Const(0), Data: Const(1)})
	p.Add(0, Event{Kind: Write, Addr: Const(1), Data: Const(1)})
	p.Add(1, Event{Kind: Write, Addr: Const(0), Data: Const(2)})
	p.Add(1, Event{Kind: Read, Addr: Const(0), Dst: 0})
	p.Add(2, Event{Kind: Read, Addr: Const(0), Dst: 0})
	p.Add(2, Event{Kind: Read, Addr: Const(1), Dst: 1})
	p.AddObserver(1, 0, "a")
	p.AddObserver(2, 0, "b")
	p.AddObserver(2, 1, "c")
	count := 0
	err := Enumerate(p, func(x *Execution) bool {
		count++
		for _, e := range p.Events() {
			if e.IsRead() {
				src := x.RF[e.GID]
				if src != InitWrite && x.LocOf[src] != x.LocOf[e.GID] {
					t.Fatalf("rf source location mismatch: %v", x)
				}
				for _, w := range x.AppendFRSuccessors(e.GID, nil) {
					srcIdx := 0
					if src != InitWrite {
						srcIdx = x.MOIndex[src]
					}
					if x.MOIndex[w] <= srcIdx {
						t.Fatalf("fr successor not mo-after source: %v", x)
					}
				}
			}
		}
		for l, ws := range x.MO {
			for i, w := range ws {
				if x.MOIndex[w] != i+1 || x.LocOf[w] != Loc(l) {
					t.Fatalf("MOIndex inconsistent: %v", x)
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if count == 0 {
		t.Fatal("no executions enumerated")
	}
}
