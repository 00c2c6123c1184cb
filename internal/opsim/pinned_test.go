package opsim

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// pinnedExploration is the explored state space of one litmus family
// under one compiler mapping on one operational machine: the sum of
// StateCount over the family's tests, and a digest of every test's
// reachable outcome set.
type pinnedExploration struct {
	family, mapping, machine string
	states                   int
	outcomes                 string
}

// pinnedExplorations is the reference state space per (family, mapping,
// machine). The outcome digests were recorded by the full search, with
// fmt-printed visited-set keys and a freshly allocated state per
// successor; the state counts come from Outcomes' reduced search. A key
// that merges distinct configurations, or a recycled state aliasing a
// live one, moves the counts, and so does any change to the reduction's
// rules or to the order explore tries them in; a digest moves only when
// a reachable outcome is lost or gained. "iriw[0]" is the family's first
// test alone (iriw[rlx,rlx,rlx,rlx,rlx,rlx]).
var pinnedExplorations = []pinnedExploration{
	{"mp", "riscv-base-intuitive", "SC", 1755, "822978837db3eb8e"},
	{"mp", "riscv-base-intuitive", "WR", 1917, "822978837db3eb8e"},
	{"mp", "riscv-base-intuitive", "TSO", 1917, "822978837db3eb8e"},
	{"mp", "riscv-base-intuitive", "nWR", 1998, "822978837db3eb8e"},
	{"sb", "riscv-base-intuitive", "SC", 1755, "73ec4957435a01ef"},
	{"sb", "riscv-base-intuitive", "WR", 2943, "d31e426bb04e8f49"},
	{"sb", "riscv-base-intuitive", "TSO", 2943, "d31e426bb04e8f49"},
	{"sb", "riscv-base-intuitive", "nWR", 2979, "d31e426bb04e8f49"},
	{"wrc", "riscv-base-intuitive", "SC", 15066, "79e5fbbe925a4179"},
	{"wrc", "riscv-base-intuitive", "WR", 17010, "79e5fbbe925a4179"},
	{"wrc", "riscv-base-intuitive", "TSO", 17010, "79e5fbbe925a4179"},
	{"wrc", "riscv-base-intuitive", "nWR", 31914, "1767c10e76b9b5ff"},
	{"rwc", "riscv-base-intuitive", "SC", 15066, "3b6f547523b0c64a"},
	{"rwc", "riscv-base-intuitive", "WR", 19494, "e04ca73d034875b6"},
	{"rwc", "riscv-base-intuitive", "TSO", 19494, "e04ca73d034875b6"},
	{"rwc", "riscv-base-intuitive", "nWR", 28782, "b3853deb59d25459"},
	{"iriw[0]", "riscv-base-intuitive", "SC", 97, "98395157156adab6"},
	{"iriw[0]", "riscv-base-intuitive", "WR", 99, "98395157156adab6"},
	{"iriw[0]", "riscv-base-intuitive", "TSO", 99, "98395157156adab6"},
	{"iriw[0]", "riscv-base-intuitive", "nWR", 246, "98caf7af272705c5"},
	{"iriw", "riscv-base-intuitive", "SC", 129033, "c60644da0f1c622a"},
	{"iriw", "riscv-base-intuitive", "WR", 130491, "c60644da0f1c622a"},
	{"iriw", "riscv-base-intuitive", "TSO", 130491, "c60644da0f1c622a"},
	{"iriw", "riscv-base-intuitive", "nWR", 297432, "657d9c2266bd33f9"},
	{"mp", "riscv-base+a-intuitive", "SC", 1053, "822978837db3eb8e"},
	{"mp", "riscv-base+a-intuitive", "WR", 1143, "822978837db3eb8e"},
	{"mp", "riscv-base+a-intuitive", "TSO", 1143, "822978837db3eb8e"},
	{"mp", "riscv-base+a-intuitive", "nWR", 1692, "822978837db3eb8e"},
	{"sb", "riscv-base+a-intuitive", "SC", 1053, "73ec4957435a01ef"},
	{"sb", "riscv-base+a-intuitive", "WR", 1323, "da66bb53bdd3bd09"},
	{"sb", "riscv-base+a-intuitive", "TSO", 1323, "da66bb53bdd3bd09"},
	{"sb", "riscv-base+a-intuitive", "nWR", 2642, "d31e426bb04e8f49"},
	{"wrc", "riscv-base+a-intuitive", "SC", 8748, "79e5fbbe925a4179"},
	{"wrc", "riscv-base+a-intuitive", "WR", 9396, "79e5fbbe925a4179"},
	{"wrc", "riscv-base+a-intuitive", "TSO", 9396, "79e5fbbe925a4179"},
	{"wrc", "riscv-base+a-intuitive", "nWR", 22680, "fee0d7b9a48175c5"},
	{"rwc", "riscv-base+a-intuitive", "SC", 8748, "3b6f547523b0c64a"},
	{"rwc", "riscv-base+a-intuitive", "WR", 9666, "f09f626e7d15fa66"},
	{"rwc", "riscv-base+a-intuitive", "TSO", 9666, "f09f626e7d15fa66"},
	{"rwc", "riscv-base+a-intuitive", "nWR", 25425, "8a2b6ba8b6cdca8c"},
	{"iriw[0]", "riscv-base+a-intuitive", "SC", 97, "98395157156adab6"},
	{"iriw[0]", "riscv-base+a-intuitive", "WR", 99, "98395157156adab6"},
	{"iriw[0]", "riscv-base+a-intuitive", "TSO", 99, "98395157156adab6"},
	{"iriw[0]", "riscv-base+a-intuitive", "nWR", 246, "98caf7af272705c5"},
	{"iriw", "riscv-base+a-intuitive", "SC", 70713, "c60644da0f1c622a"},
	{"iriw", "riscv-base+a-intuitive", "WR", 71199, "c60644da0f1c622a"},
	{"iriw", "riscv-base+a-intuitive", "TSO", 71199, "c60644da0f1c622a"},
	{"iriw", "riscv-base+a-intuitive", "nWR", 247536, "dd009131b6d571c2"},
	{"mp", "riscv-base-refined", "SC", 1755, "822978837db3eb8e"},
	{"mp", "riscv-base-refined", "WR", 1917, "822978837db3eb8e"},
	{"mp", "riscv-base-refined", "TSO", 1917, "822978837db3eb8e"},
	{"sb", "riscv-base-refined", "SC", 1755, "73ec4957435a01ef"},
	{"sb", "riscv-base-refined", "WR", 2943, "d31e426bb04e8f49"},
	{"sb", "riscv-base-refined", "TSO", 2943, "d31e426bb04e8f49"},
	{"wrc", "riscv-base-refined", "SC", 15066, "79e5fbbe925a4179"},
	{"wrc", "riscv-base-refined", "WR", 17010, "79e5fbbe925a4179"},
	{"wrc", "riscv-base-refined", "TSO", 17010, "79e5fbbe925a4179"},
	{"rwc", "riscv-base-refined", "SC", 15066, "3b6f547523b0c64a"},
	{"rwc", "riscv-base-refined", "WR", 19494, "e04ca73d034875b6"},
	{"rwc", "riscv-base-refined", "TSO", 19494, "e04ca73d034875b6"},
	{"iriw[0]", "riscv-base-refined", "SC", 97, "98395157156adab6"},
	{"iriw[0]", "riscv-base-refined", "WR", 99, "98395157156adab6"},
	{"iriw[0]", "riscv-base-refined", "TSO", 99, "98395157156adab6"},
	{"iriw", "riscv-base-refined", "SC", 129033, "c60644da0f1c622a"},
	{"iriw", "riscv-base-refined", "WR", 130491, "c60644da0f1c622a"},
	{"iriw", "riscv-base-refined", "TSO", 130491, "c60644da0f1c622a"},
	{"mp", "riscv-base+a-refined", "SC", 1053, "822978837db3eb8e"},
	{"mp", "riscv-base+a-refined", "WR", 1143, "822978837db3eb8e"},
	{"mp", "riscv-base+a-refined", "TSO", 1143, "822978837db3eb8e"},
	{"sb", "riscv-base+a-refined", "SC", 1053, "73ec4957435a01ef"},
	{"sb", "riscv-base+a-refined", "WR", 1431, "ff57e8ecfae9e833"},
	{"sb", "riscv-base+a-refined", "TSO", 1431, "ff57e8ecfae9e833"},
	{"wrc", "riscv-base+a-refined", "SC", 8748, "79e5fbbe925a4179"},
	{"wrc", "riscv-base+a-refined", "WR", 9396, "79e5fbbe925a4179"},
	{"wrc", "riscv-base+a-refined", "TSO", 9396, "79e5fbbe925a4179"},
	{"rwc", "riscv-base+a-refined", "SC", 8748, "3b6f547523b0c64a"},
	{"rwc", "riscv-base+a-refined", "WR", 10044, "d2438414ea32f261"},
	{"rwc", "riscv-base+a-refined", "TSO", 10044, "d2438414ea32f261"},
	{"iriw[0]", "riscv-base+a-refined", "SC", 97, "98395157156adab6"},
	{"iriw[0]", "riscv-base+a-refined", "WR", 99, "98395157156adab6"},
	{"iriw[0]", "riscv-base+a-refined", "TSO", 99, "98395157156adab6"},
	{"iriw", "riscv-base+a-refined", "SC", 70713, "c60644da0f1c622a"},
	{"iriw", "riscv-base+a-refined", "WR", 71199, "c60644da0f1c622a"},
	{"iriw", "riscv-base+a-refined", "TSO", 71199, "c60644da0f1c622a"},
}

// machineName names the operational machine ForConfig picked.
func machineName(e Enumerator) string {
	switch s := e.(type) {
	case *NMCASimulator:
		return "nWR"
	case *Simulator:
		switch {
		case s.WriteThrough:
			return "SC"
		case s.Forwarding:
			return "TSO"
		}
		return "WR"
	}
	return fmt.Sprintf("%T", e)
}

// outcomeDigest folds a test's name and its sorted outcome set into h.
func outcomeDigest(h io.Writer, name string, out map[mem.Outcome]bool) {
	sorted := make([]string, 0, len(out))
	for o := range out {
		sorted = append(sorted, string(o))
	}
	sort.Strings(sorted)
	fmt.Fprintf(h, "%s\t%s\n", name, strings.Join(sorted, "|"))
}

// TestExplorationCountsPinned runs the mp, sb, wrc, rwc and iriw
// families through the four RISC-V mappings, on every machine ForConfig
// picks for the mapping's variant's Table 7 models plus SC, and pins the
// explored state counts and outcome sets.
func TestExplorationCountsPinned(t *testing.T) {
	mappings := []struct {
		m *compile.Mapping
		v uspec.Variant
	}{
		{compile.RISCVBaseIntuitive, uspec.Curr},
		{compile.RISCVAtomicsIntuitive, uspec.Curr},
		{compile.RISCVBaseRefined, uspec.Ours},
		{compile.RISCVAtomicsRefined, uspec.Ours},
	}
	families := []struct {
		name  string
		tests []*litmus.Test
	}{
		{"mp", litmus.MP.Generate()},
		{"sb", litmus.SB.Generate()},
		{"wrc", litmus.WRC.Generate()},
		{"rwc", litmus.RWC.Generate()},
		{"iriw[0]", litmus.IRIW.Generate()[:1]},
		{"iriw", litmus.IRIW.Generate()},
	}
	want := map[[3]string]pinnedExploration{}
	rows := map[string]int{} // pinned rows per mapping
	for _, p := range pinnedExplorations {
		want[[3]string{p.family, p.mapping, p.machine}] = p
		rows[p.mapping]++
	}
	for _, mv := range mappings {
		t.Run(mv.m.Name, func(t *testing.T) {
			t.Parallel()
			models := append([]*uspec.Model{uspec.SCProof()}, uspec.Models(mv.v)...)
			ran := 0
			for _, fam := range families {
				progs := make([]*isa.Program, len(fam.tests))
				for i, tst := range fam.tests {
					p, err := compile.Compile(mv.m, tst.Prog)
					if err != nil {
						t.Fatalf("%s: %v", tst.Name, err)
					}
					progs[i] = p
				}
				done := map[string]bool{}
				for _, model := range models {
					probe, err := ForConfig(model.Config, progs[0])
					if err != nil {
						continue // no machine for this profile
					}
					machine := machineName(probe)
					if done[machine] {
						continue
					}
					done[machine] = true
					got := pinnedExploration{family: fam.name, mapping: mv.m.Name, machine: machine}
					h := fnv.New64a()
					for i, p := range progs {
						sim, _ := ForConfig(model.Config, p)
						outcomeDigest(h, fam.tests[i].Name, sim.Outcomes())
						got.states += sim.StateCount()
					}
					got.outcomes = fmt.Sprintf("%016x", h.Sum64())
					if w := want[[3]string{got.family, got.mapping, got.machine}]; w != got {
						t.Errorf("explored %+v, want %+v\n\t{%q, %q, %q, %d, %q},",
							got, w, got.family, got.mapping, got.machine, got.states, got.outcomes)
					}
					ran++
				}
			}
			if ran != rows[mv.m.Name] {
				t.Errorf("ran %d (family, machine) cases, %d pinned", ran, rows[mv.m.Name])
			}
		})
	}
}

// pinnedWitness is every Trace witness of one litmus family under one
// compiler mapping: the number of Trace calls and a digest of their
// results.
type pinnedWitness struct {
	family, mapping string
	calls           int
	witnesses       string
}

// pinnedWitnesses is the reference Trace output per (family, mapping),
// over the machines TestExplorationCountsPinned covers, recorded while
// Trace still ran a depth-first search of its own beside Outcomes'. The
// wrc and rwc rows are skipped under -short.
var pinnedWitnesses = []pinnedWitness{
	{"mp", "riscv-base-intuitive", 1296, "7d4db6c5ef63a89b"},
	{"sb", "riscv-base-intuitive", 1512, "b00a63d3e2dc8ec7"},
	{"wrc", "riscv-base-intuitive", 8019, "376ff97a421fda85"},
	{"rwc", "riscv-base-intuitive", 8343, "e38358522de7c939"},
	{"iriw[0]", "riscv-base-intuitive", 65, "6a77280ab4051de2"},
	{"mp", "riscv-base+a-intuitive", 1296, "b6344cdbc629fdc9"},
	{"sb", "riscv-base+a-intuitive", 1432, "7954008c293c2a97"},
	{"wrc", "riscv-base+a-intuitive", 7938, "095e5085cac7dc19"},
	{"rwc", "riscv-base+a-intuitive", 8100, "417908c5d6311e0a"},
	{"iriw[0]", "riscv-base+a-intuitive", 65, "6a77280ab4051de2"},
	{"mp", "riscv-base-refined", 972, "dcfeb3bbbd8b6671"},
	{"sb", "riscv-base-refined", 1116, "bd303bfbaa5094ce"},
	{"wrc", "riscv-base-refined", 5832, "9ac6e30e74d2d7b4"},
	{"rwc", "riscv-base-refined", 6156, "9170fdad354373b6"},
	{"iriw[0]", "riscv-base-refined", 48, "ecbd64814d93320d"},
	{"mp", "riscv-base+a-refined", 972, "d9722cfa4f526d68"},
	{"sb", "riscv-base+a-refined", 1062, "8c579b7face8bea8"},
	{"wrc", "riscv-base+a-refined", 5832, "524b45107e64e15a"},
	{"rwc", "riscv-base+a-refined", 5994, "a8bc5388c933d50a"},
	{"iriw[0]", "riscv-base+a-refined", 48, "ecbd64814d93320d"},
}

// unreachable is a Trace target no test reaches.
const unreachable mem.Outcome = "no such outcome"

// TestTraceWitnessesPinned traces every reachable outcome of the mp, sb,
// wrc, rwc and iriw[0] tests, and one unreachable target, on every
// machine ForConfig picks for the mapping's variant's Table 7 models
// plus SC, and pins the witnesses byte for byte. The unreachable target
// must give no witness, and Trace must leave StateCount as Outcomes left
// it.
func TestTraceWitnessesPinned(t *testing.T) {
	mappings := []struct {
		m *compile.Mapping
		v uspec.Variant
	}{
		{compile.RISCVBaseIntuitive, uspec.Curr},
		{compile.RISCVAtomicsIntuitive, uspec.Curr},
		{compile.RISCVBaseRefined, uspec.Ours},
		{compile.RISCVAtomicsRefined, uspec.Ours},
	}
	families := []struct {
		name  string
		tests []*litmus.Test
		full  bool // skipped under -short
	}{
		{"mp", litmus.MP.Generate(), false},
		{"sb", litmus.SB.Generate(), false},
		{"wrc", litmus.WRC.Generate(), true},
		{"rwc", litmus.RWC.Generate(), true},
		{"iriw[0]", litmus.IRIW.Generate()[:1], false},
	}
	want := map[[2]string]pinnedWitness{}
	for _, p := range pinnedWitnesses {
		want[[2]string{p.family, p.mapping}] = p
	}
	for _, mv := range mappings {
		t.Run(mv.m.Name, func(t *testing.T) {
			t.Parallel()
			models := append([]*uspec.Model{uspec.SCProof()}, uspec.Models(mv.v)...)
			for _, fam := range families {
				if fam.full && testing.Short() {
					continue
				}
				got := pinnedWitness{family: fam.name, mapping: mv.m.Name}
				h := fnv.New64a()
				for _, tst := range fam.tests {
					p, err := compile.Compile(mv.m, tst.Prog)
					if err != nil {
						t.Fatalf("%s: %v", tst.Name, err)
					}
					done := map[string]bool{}
					for _, model := range models {
						sim, err := ForConfig(model.Config, p)
						if err != nil {
							continue // no machine for this profile
						}
						machine := machineName(sim)
						if done[machine] {
							continue
						}
						done[machine] = true
						out := sim.Outcomes()
						states := sim.StateCount()
						targets := make([]string, 0, len(out)+1)
						for o := range out {
							targets = append(targets, string(o))
						}
						sort.Strings(targets)
						for _, o := range append(targets, string(unreachable)) {
							w := sim.Trace(mem.Outcome(o))
							got.calls++
							if reach := out[mem.Outcome(o)]; reach != (w != nil) {
								t.Errorf("%s/%s: Trace(%q) = %q for an outcome reachable=%v", tst.Name, machine, o, w, reach)
							}
							fmt.Fprintf(h, "%s\t%s\t%s\t%s\n", tst.Name, machine, o, strings.Join(w, "|"))
						}
						if sim.StateCount() != states {
							t.Errorf("%s/%s: StateCount %d after Trace, %d after Outcomes", tst.Name, machine, sim.StateCount(), states)
						}
					}
				}
				got.witnesses = fmt.Sprintf("%016x", h.Sum64())
				if w := want[[2]string{got.family, got.mapping}]; w != got {
					t.Errorf("traced %+v, want %+v\n\t{%q, %q, %d, %q},",
						got, w, got.family, got.mapping, got.calls, got.witnesses)
				}
			}
		})
	}
}
