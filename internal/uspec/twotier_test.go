package uspec

import (
	"fmt"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// sampledSuite returns every stride-th test of the paper suite.
func sampledSuite(stride int) []*litmus.Test {
	suite := litmus.PaperSuite()
	var out []*litmus.Test
	for i := 0; i < len(suite); i += stride {
		out = append(out, suite[i])
	}
	return out
}

// oracleModels is the model spread the equivalence tests sweep: every
// relaxation axis and both MCM variants, including the cache-protocol
// topology and the cumulative-fence/lazy-release (Ours) semantics.
func oracleModels() []*Model {
	return []*Model{
		WR(Curr), RWR(Curr), RWM(Curr), RMM(Curr), NWR(Curr), NMM(Curr), A9like(Curr),
		RMM(Ours), NMM(Ours), A9like(Ours),
		SCProof(), AlphaLike(), PowerA9(),
	}
}

// wideMP returns mp beside six threads that each store to their own
// location. Under nMCA with eight cores a store has nine ports, so the
// program has 74, and the port closure leaves its four candidates to the
// overlay; under MCA it has 18.
func wideMP() *isa.Program {
	const n = 8
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	p := isa.NewProgram(isa.RISCV, n, names...)
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(1)))
	p.Add(1, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.LW(1, mem.Const(0)))
	for th := 2; th < n; th++ {
		p.Add(th, riscv.SW(mem.Const(1), mem.Const(int64(th))))
	}
	p.Observe(1, 0, "r0")
	p.Observe(1, 1, "r1")
	return p
}

// ctrlOnLaterLoad returns a program whose first store has a control
// dependency on the load after it when dep is set. mem.Validate rejects
// that dependency, and its static edge runs back to an earlier event,
// which closes a static cycle. Without dep the program is valid and has
// the same events, so its executions serve as the other's candidates.
func ctrlOnLaterLoad(dep bool) *isa.Program {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	st := riscv.SW(mem.Const(1), mem.Const(0))
	if dep {
		st.CtrlDepOn = []int{1}
	}
	p.Add(0, st)
	p.Add(0, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.SW(mem.Const(1), mem.Const(1)))
	return p
}

// TestTwoTierMatchesMaterializedGraph is the two-tier equivalence
// property: for every candidate execution of a sampled paper-suite slice,
// on every model, the two-tier verdict (static skeleton + the candidate's
// dynamic edges, decided on the skeleton's port closure, or by the
// overlay where the closure does not take the skeleton) must equal the
// single-graph oracle — BuildGraph's one skeleton holding every edge of
// the execution, searched by a plain DFS. Two hand-built programs take
// the overlay's path: wideMP, whose nMCA skeletons have more than 64
// ports, must meet both verdicts there, and ctrlOnLaterLoad, whose
// skeleton is cyclic on every model that respects dependencies, only
// forbidden ones.
func TestTwoTierMatchesMaterializedGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive execution sweep is not short")
	}
	tests := sampledSuite(131)
	mappings := []*compile.Mapping{compile.RISCVBaseIntuitive, compile.RISCVAtomicsRefined}
	for _, tst := range tests {
		for _, mp := range mappings {
			prog, err := compile.Compile(mp, tst.Prog)
			if err != nil {
				t.Fatalf("compile %s: %v", tst.Name, err)
			}
			for _, m := range oracleModels() {
				pr := m.Prepare(prog)
				execs := 0
				err := mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
					execs++
					fast := pr.ExecutionObservable(x)
					slow := m.BuildGraph(prog, x).Acyclic()
					if fast != slow {
						t.Errorf("%s on %s+%s, execution %s: two-tier=%v oracle=%v",
							tst.Name, mp.Name, m.FullName(), x, fast, slow)
						return false
					}
					return true
				})
				pr.Close()
				if err != nil && err != mem.ErrStopped {
					t.Fatalf("%s on %s: %v", tst.Name, m.FullName(), err)
				}
				if execs == 0 {
					t.Fatalf("%s on %s: no executions enumerated", tst.Name, m.FullName())
				}
			}
		}
	}

	// wide[observable] and ctrl[observable] count the candidates of
	// wideMP and ctrlOnLaterLoad that the overlay decided.
	var wide, ctrl [2]int
	wp := wideMP()
	handBuilt := []struct {
		name        string
		prog, cands *isa.Program
		seen        *[2]int
	}{
		{"wide mp", wp, wp, &wide},
		{"ctrl-later-load", ctrlOnLaterLoad(true), ctrlOnLaterLoad(false), &ctrl},
	}
	for _, m := range oracleModels() {
		for _, h := range handBuilt {
			pr := m.Prepare(h.prog)
			overlay := pr.cl.HasCycle() // before any candidate: the closure did not take the skeleton
			err := mem.Enumerate(h.cands.Mem(), func(x *mem.Execution) bool {
				fast := pr.ExecutionObservable(x)
				slow := m.BuildGraph(h.prog, x).Acyclic()
				if fast != slow {
					t.Errorf("%s (%d ports) on %s, execution %s: two-tier=%v oracle=%v", h.name, len(pr.ports), m.FullName(), x, fast, slow)
				}
				if overlay && slow {
					h.seen[1]++
				} else if overlay {
					h.seen[0]++
				}
				return true
			})
			pr.Close()
			if err != nil {
				t.Fatalf("%s on %s: %v", h.name, m.FullName(), err)
			}
		}
	}
	t.Logf("[forbidden, observable] candidates decided by the overlay: wide mp %v, control dependency on a later load %v", wide, ctrl)
	if wide[0] == 0 || wide[1] == 0 || ctrl[0] == 0 || ctrl[1] != 0 {
		t.Errorf("[forbidden, observable] candidates: wide mp %v, want both; control dependency on a later load %v, want only forbidden", wide, ctrl)
	}
}

// pointerPrograms returns two programs whose same-thread pairs alias only
// through a register-carried address. Location p starts at 0, which is
// location x, so a load of p yields a pointer to x. The first is CoRR
// through the pointer. In the second, T2 stores to x through the pointer
// and then loads x from T1's store: on nMCA the store must drain to every
// core before that load performs, which closes the cycle through T0's
// fence (the sb-same-addr-drain shape of the nWR differential).
func pointerPrograms() map[string]*isa.Program {
	corr := isa.NewProgram(isa.RISCV, 2, "x", "p")
	corr.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	corr.Add(1, riscv.LW(1, mem.Const(0)))
	corr.Add(1, riscv.LW(0, mem.Const(1)))
	corr.Add(1, riscv.LW(2, mem.FromReg(0)))
	corr.Observe(1, 1, "r1")
	corr.Observe(1, 2, "r2")
	drain := isa.NewProgram(isa.RISCV, 3, "x", "y", "p")
	drain.Add(0, riscv.SW(mem.Const(1), mem.Const(1)))
	drain.Add(0, riscv.Fence(isa.ClassW, isa.ClassR))
	drain.Add(0, riscv.LW(0, mem.Const(0)))
	drain.Add(1, riscv.SW(mem.Const(1), mem.Const(0)))
	drain.Add(2, riscv.LW(0, mem.Const(2)))
	drain.Add(2, riscv.SW(mem.Const(2), mem.FromReg(0)))
	drain.Add(2, riscv.LW(1, mem.Const(0)))
	drain.Add(2, riscv.LW(2, mem.Const(1)))
	drain.Observe(0, 0, "a0")
	drain.Observe(2, 1, "r1")
	drain.Observe(2, 2, "r2")
	return map[string]*isa.Program{"corr-ptr": corr, "drain-ptr": drain}
}

// TestRegisterAddressAliasAcrossLattice holds the dynamic sites Prepare
// records to every pair that can alias: on all 100 lattice configs, for
// every candidate of two programs that alias only through a pointer,
// the two-tier verdict must equal the materialized graph's. The 200
// Prepared values pass through the pool with site lists that differ
// from one to the next.
func TestRegisterAddressAliasAcrossLattice(t *testing.T) {
	progs := pointerPrograms()
	names := []string{"corr-ptr", "drain-ptr"}
	aliasForbids := 0 // CoRR candidates a config relaxing R→M forbids
	for _, v := range []Variant{Curr, Ours} {
		for _, cfg := range EnumerateConfigs(v) {
			m := New(cfg)
			for _, name := range names {
				prog := progs[name]
				pr := m.Prepare(prog)
				err := mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
					fast := pr.ExecutionObservable(x)
					slow := m.BuildGraph(prog, x).Acyclic()
					if fast != slow {
						t.Errorf("%s on %s: execution %s: two-tier=%v oracle=%v", name, m.FullName(), x, fast, slow)
					}
					if name == "corr-ptr" && cfg.RelaxRR && !slow {
						aliasForbids++
					}
					return true
				})
				pr.Close()
				if err != nil {
					t.Fatalf("%s on %s: %v", name, m.FullName(), err)
				}
			}
		}
	}
	// Relaxed R→M leaves the same-address refinement as the only order
	// between the two loads of x, so CoRR must be forbidden somewhere.
	if aliasForbids == 0 {
		t.Error("no config relaxing R→M forbids a CoRR candidate: the pointer never aliased")
	}
}

// TestTwoTierEdgeUnionMatchesGraph checks the stronger structural
// property on a dependency-carrying test under cumulative-fence
// semantics: the skeleton's edges plus the dynamic edges an execution's
// run recorded in the closure are exactly the materialized graph's edges,
// and every dynamic edge runs between two of the Prepared's ports.
func TestTwoTierEdgeUnionMatchesGraph(t *testing.T) {
	tst := litmus.MPAddrDep.Instantiate([]c11.Order{c11.Rel, c11.Rel, c11.Rlx, c11.Acq})
	prog, err := compile.Compile(compile.RISCVAtomicsRefined, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{NMM(Ours), A9like(Curr), WR(Curr)} {
		pr := m.Prepare(prog)
		port := map[int]bool{}
		for _, v := range pr.ports {
			port[int(v)] = true
		}
		checked := 0
		err := mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
			checked++
			_ = pr.ExecutionObservable(x) // leaves x's dynamic edges in the closure
			g := m.BuildGraph(prog, x)
			type edge struct{ from, to int }
			union := map[edge]string{}
			pr.Skeleton().ForEachEdge(func(from, to int, reason uint32) {
				if _, dup := union[edge{from, to}]; !dup {
					union[edge{from, to}] = Reason(reason).String()
				}
			})
			dynEdges := 0
			pr.cl.ForEachEdge(func(from, to int, reason uint32) {
				dynEdges++
				if !port[from] || !port[to] {
					t.Errorf("%s: dynamic %s edge (%d,%d) leaves the port set", m.FullName(), Reason(reason), from, to)
				}
				if _, dup := union[edge{from, to}]; !dup {
					union[edge{from, to}] = Reason(reason).String()
				}
			})
			if dynEdges == 0 {
				t.Errorf("%s: execution produced no dynamic edges", m.FullName())
			}
			if len(union) != g.s.NumEdges() {
				t.Errorf("%s: union has %d distinct edges, graph %d", m.FullName(), len(union), g.s.NumEdges())
				return false
			}
			for e := range union {
				if !g.s.HasEdge(e.from, e.to) {
					t.Errorf("%s: tiered edge (%d,%d) missing from graph", m.FullName(), e.from, e.to)
					return false
				}
			}
			return checked < 40 // bound the exhaustive sweep
		})
		pr.Close()
		if err != nil && err != mem.ErrStopped {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatalf("%s: no executions", m.FullName())
		}
	}
}

// TestVerdictPathFormatsNoDiagnostics pins the lazy-diagnostics contract:
// a full Evaluate — skeleton construction included — must not format a
// single reason or label string. Explain, by contrast, must.
func TestVerdictPathFormatsNoDiagnostics(t *testing.T) {
	// Cover cumulative fences, AMO annotations and nMCA visibility: the
	// refined atomics mapping on NMM(Ours) exercises every dynamic pass.
	tst := litmus.WRC.Instantiate([]c11.Order{c11.SC, c11.SC, c11.Rel, c11.Acq, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVAtomicsRefined, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{NMM(Ours), A9like(Curr), WR(Curr)} {
		before := DiagnosticFormats()
		if _, err := m.Evaluate(prog); err != nil {
			t.Fatal(err)
		}
		if got := DiagnosticFormats() - before; got != 0 {
			t.Errorf("%s: verdict path formatted %d diagnostic strings, want 0", m.FullName(), got)
		}
	}
	// Sanity: the diagnostics path does format.
	before := DiagnosticFormats()
	if _, _, err := NMM(Ours).Explain(prog, tst.Specified); err != nil {
		t.Fatal(err)
	}
	if DiagnosticFormats() == before {
		t.Error("Explain formatted no diagnostics — counter not wired")
	}
}

// TestExplainPinnedCycle pins the deterministic cycle FindCycle reports
// for a known forbidden execution: mp with all-relaxed orders is forbidden
// on the strong WR pipeline, and the explanation must name exactly the
// rf → ppo-RR → fr → ppo-WW cycle.
func TestExplainPinnedCycle(t *testing.T) {
	tst := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	obs, why, err := WR(Curr).Explain(prog, tst.Specified)
	if err != nil {
		t.Fatal(err)
	}
	if obs {
		t.Fatal("mp must be forbidden on WR")
	}
	const want = "forbidden on WR/riscv-curr: cycle " +
		"T0.i1.VisibleAll --[rf]--> T1.i0.Perform --[ppo-RR]--> " +
		"T1.i1.Perform --[fr]--> T0.i0.VisibleAll --[ppo-WW]--> T0.i1.VisibleAll"
	if why != want {
		t.Errorf("explanation drifted:\n got %q\nwant %q", why, want)
	}
}
