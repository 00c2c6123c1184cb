package opsim

import (
	"math/rand"
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

// nmcaSeedCorpus pins fuzz seeds that have historically exercised the
// nMCA per-core visibility-order machinery (source-FIFO vs coherence-order
// interleavings). quick.Check draws fresh seeds every run; this corpus
// makes the interesting ones permanent regression tests.
var nmcaSeedCorpus = []int64{
	3,          // multi-writer same-location: coherence order vs apply order
	17,         // AMO mixed with plain stores across two locations
	42,         // fence-heavy: drain stalls interleaved with applies
	1701,       // the paper-suite size, for luck — reader-side reordering
	0x5eed,     // three threads, both locations written concurrently
	0xf15e15,   // Figure 15 family density: writes racing two readers
	987654321,  // long per-thread programs, deep apply backlogs
	1145141919, // AMO release flushing against pending applies
}

// TestNMCASeedCorpus replays the pinned seeds through the same
// operational/axiomatic differential as TestFuzzDifferentialNMCA.
func TestNMCASeedCorpus(t *testing.T) {
	for _, seed := range nmcaSeedCorpus {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		op := NewNMCA(p).Outcomes()
		ax, err := uspec.NWR(uspec.Curr).Evaluate(p)
		if err != nil {
			t.Fatalf("seed %d: axiomatic: %v\n%s", seed, err, p)
		}
		for o := range op {
			if !ax.Observable[o] {
				t.Errorf("seed %d: outcome %q reachable operationally, forbidden axiomatically on nWR\n%s", seed, o, p)
			}
		}
		for o := range ax.Observable {
			if !op[o] {
				t.Errorf("seed %d: outcome %q observable axiomatically on nWR, unreachable operationally\n%s", seed, o, p)
			}
		}
	}
}

// TestNMCAVisibilityOrderEdge is the handcrafted companion to the seed
// corpus: the WRC visibility-order edge the paper's Figure 15 family
// exercises (§5.1.1). Under nMCA a write can be applied at one reader
// core before another, so causality leaks through non-cumulative fences;
// the test pins the full outcome set against the axiomatic nWR model and
// demands an operational trace witness for the causality violation.
func TestNMCAVisibilityOrderEdge(t *testing.T) {
	tst := litmus.WRC.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !crossCheckNMCA(t, tst.Name, prog) {
		return
	}
	wit := NewNMCA(prog).Trace(tst.Specified)
	if len(wit) == 0 {
		t.Fatal("no operational trace witness for the WRC visibility-order outcome")
	}
	// The witness must be a genuine nMCA schedule: the violation requires
	// a per-core apply step (a write visible at one core, pending at
	// another) — a purely drain/execute schedule is the MCA machine.
	sawApply := false
	for _, line := range wit {
		if strings.Contains(line, ": apply ") {
			sawApply = true
			break
		}
	}
	if !sawApply {
		t.Errorf("trace witness has no per-core apply step — not an nMCA schedule:\n%v", wit)
	}
	// The same outcome must be unreachable on the MCA machines, so the
	// witness is specifically about non-multi-copy-atomicity.
	if New(prog).Trace(tst.Specified) != nil {
		t.Error("MCA machine also reaches the outcome — the edge is not visibility-order specific")
	}
	if NewTSO(prog).Outcomes()[tst.Specified] {
		t.Error("TSO machine also reaches the outcome — the edge is not visibility-order specific")
	}
}
