package core

import (
	"context"
	"errors"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/litmus"
	"tricheck/internal/opsim"
	"tricheck/internal/uspec"
)

func TestParseBackend(t *testing.T) {
	for in, want := range map[string]Backend{
		"": BackendUHB, "uhb": BackendUHB, "opsim": BackendOpsim, "both": BackendBoth,
	} {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackend("axiomatic"); err == nil {
		t.Error("ParseBackend accepted an unknown backend")
	}
}

// TestJobKeyBackendDisjoint: the three backends never share memo keys,
// and the uhb key is the legacy untagged JobKey so existing snapshots
// stay warm.
func TestJobKeyBackendDisjoint(t *testing.T) {
	tst := litmus.SB.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	s := Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.SCProof()}
	keys := map[string]Backend{}
	for _, b := range []Backend{BackendUHB, BackendOpsim, BackendBoth} {
		k := JobKeyBackend(tst, s, b)
		if prev, dup := keys[k]; dup {
			t.Fatalf("backends %v and %v share memo key %q", prev, b, k)
		}
		keys[k] = b
	}
	if JobKeyBackend(tst, s, BackendUHB) != JobKey(tst, s) {
		t.Error("uhb backend key differs from the legacy JobKey")
	}
}

// TestBackendMemoIsolation: a warm uhb cache must not satisfy opsim or
// cross-check jobs for the same (test, stack), and each backend's own
// rerun must hit its cache.
func TestBackendMemoIsolation(t *testing.T) {
	eng := NewEngine()
	eng.EnableMemo(0)
	tst := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	s := Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.TSO()}
	for i, b := range []Backend{BackendUHB, BackendOpsim, BackendBoth} {
		if _, err := eng.RunBackend(tst, s, b); err != nil {
			t.Fatal(err)
		}
		if got := eng.Executions(); got != uint64(i+1) {
			t.Fatalf("after cold %v run: %d executions, want %d (cache crosstalk)", b, got, i+1)
		}
	}
	for _, b := range []Backend{BackendUHB, BackendOpsim, BackendBoth} {
		if _, err := eng.RunBackend(tst, s, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Executions(); got != 3 {
		t.Errorf("warm reruns executed: %d executions, want 3", got)
	}
}

// TestBackendBothAgrees: on every opsim-supported riscv-curr profile the
// cross-check over the full SB and MP instantiations finds no
// divergence, and every result carries the operational set.
func TestBackendBothAgrees(t *testing.T) {
	eng := NewEngine()
	var tests []*litmus.Test
	tests = append(tests, litmus.SB.Generate()...)
	tests = append(tests, litmus.MP.Generate()...)
	var stacks []Stack
	for _, m := range []*uspec.Model{uspec.SCProof(), uspec.WR(uspec.Curr), uspec.TSO(), uspec.NWR(uspec.Curr)} {
		stacks = append(stacks, Stack{Mapping: compile.RISCVBaseIntuitive, Model: m})
	}
	rs, err := eng.SweepStreamBackend(context.Background(), tests, stacks, 0, BackendBoth, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rs {
		if sr.Tally.Divergent != 0 {
			t.Errorf("%s: %d divergences between uhb and opsim", sr.Stack.Name(), sr.Tally.Divergent)
		}
		for _, r := range sr.Results {
			if r.Opsim == nil {
				t.Fatalf("%s on %s: no operational side on a both-backend result", r.Test.Name, sr.Stack.Name())
			}
			if r.Opsim.Skipped != "" {
				t.Errorf("%s skipped on a supported config: %s", sr.Stack.Name(), r.Opsim.Skipped)
			}
		}
	}
	if eng.Divergences() != 0 {
		t.Errorf("engine counted %d divergences", eng.Divergences())
	}
}

// TestBackendBothSkipsUnsupported: a config beyond the simulators'
// capability degrades to a per-result skip note under both, keeping the
// uhb verdict — and hard-fails under backend=opsim.
func TestBackendBothSkipsUnsupported(t *testing.T) {
	eng := NewEngine()
	tst := litmus.SB.Instantiate([]c11.Order{c11.SC, c11.SC, c11.SC, c11.SC})
	s := Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.NMM(uspec.Curr)}
	r, err := eng.RunBackend(tst, s, BackendBoth)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == Divergence {
		t.Error("skip was reported as a divergence")
	}
	if r.Opsim == nil || r.Opsim.Skipped == "" {
		t.Fatal("no skip note on an unsupported config under backend=both")
	}
	_, err = eng.SweepStreamBackend(context.Background(), []*litmus.Test{tst}, []Stack{s}, 0, BackendOpsim, nil)
	var capErr *opsim.CapabilityError
	if !errors.As(err, &capErr) {
		t.Fatalf("backend=opsim on nMM: err = %v, want a *opsim.CapabilityError", err)
	}
}

// TestBackendMiswiredDivergence is the divergence path itself: with the
// driver deliberately miswired (SC profile → TSO machine), the
// cross-check must report a Divergence verdict carrying the symmetric
// difference and an operational trace witness — not crash, and not
// return a plain uhb verdict.
func TestBackendMiswiredDivergence(t *testing.T) {
	opsim.SetMiswired(true)
	defer opsim.SetMiswired(false)
	eng := NewEngine()
	// Relaxed SB: the SC model forbids the store-buffering outcome
	// axiomatically, and with no fences compiled in, the miswired-in TSO
	// machine reaches it operationally.
	tst := litmus.SB.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	s := Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.SCProof()}
	r, err := eng.RunBackend(tst, s, BackendBoth)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Divergence {
		t.Fatalf("verdict = %v, want Divergence", r.Verdict)
	}
	op := r.Opsim
	if op == nil || len(op.OpsimOnly) == 0 {
		t.Fatal("divergence record carries no opsim-only outcomes")
	}
	if op.WitnessOutcome == "" || len(op.Witness) == 0 {
		t.Fatal("divergence record carries no trace witness")
	}
	if op.WitnessOutcome != tst.Specified {
		t.Errorf("witness outcome %q, want the SB outcome %q", op.WitnessOutcome, tst.Specified)
	}
	if eng.Divergences() != 1 {
		t.Errorf("engine counted %d divergences, want 1", eng.Divergences())
	}
	var tally Tally
	tally.Add(r)
	if tally.Divergent != 1 || tally.Equivalent != 0 {
		t.Errorf("tally miscounts divergence: %+v", tally)
	}
}

// TestBackendDivergenceCountsOnce: a divergent job is one executed job
// with one verdict. It adds exactly 1 to tricheck_verdicts_total, under
// Divergence and not also under its µhb verdict, and the coverage
// ledger's per-model verdict column agrees with the verdict vector.
func TestBackendDivergenceCountsOnce(t *testing.T) {
	opsim.SetMiswired(true)
	defer opsim.SetMiswired(false)
	eng := NewEngine()
	tst := litmus.SB.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	s := Stack{Mapping: compile.RISCVBaseIntuitive, Model: uspec.SCProof()}
	var before [len(verdictCounters)]uint64
	for v, c := range verdictCounters {
		before[v] = c.Value()
	}
	r, err := eng.RunBackend(tst, s, BackendBoth)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Divergence {
		t.Fatalf("verdict = %v, want Divergence", r.Verdict)
	}
	for v, c := range verdictCounters {
		want := uint64(0)
		if Verdict(v) == Divergence {
			want = 1
		}
		if got := c.Value() - before[v]; got != want {
			t.Errorf("tricheck_verdicts_total{verdict=%q} moved by %d, want %d", Verdict(v), got, want)
		}
	}
	snap := eng.Coverage().Snapshot()
	if len(snap.Models) != 1 || len(snap.Vectors) != 1 {
		t.Fatalf("ledger has %d models and %d vectors, want 1 and 1", len(snap.Models), len(snap.Vectors))
	}
	if got := snap.Models[0].Verdicts; len(got) != 1 || got["Divergence"] != 1 {
		t.Errorf("ledger per-model verdicts = %v, want only Divergence: 1", got)
	}
	if got := snap.Vectors[0].Verdict; got != "Divergence" {
		t.Errorf("ledger verdict vector = %q, want Divergence", got)
	}
}
