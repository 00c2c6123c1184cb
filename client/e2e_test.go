package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"tricheck"
	"tricheck/client"
	"tricheck/internal/server"
)

// newService boots a tricheckd handler on a loopback httptest port and
// returns the server plus a client pointed at it.
func newService(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL)
}

// TestStreamedSweepMatchesInProcessSweep is the end-to-end acceptance
// test: a family sweep through HTTP yields exactly the verdicts,
// tallies and memo fingerprints of an in-process Engine.Sweep — and
// after a cache-flushing restart, a repeat request is served with zero
// verifier executions.
func TestStreamedSweepMatchesInProcessSweep(t *testing.T) {
	tests := tricheck.MP.Generate()
	stacks, err := tricheck.SelectStacks("base", "both")
	if err != nil {
		t.Fatal(err)
	}
	total := len(tests) * len(stacks)

	// In-process reference sweep.
	ref, err := tricheck.NewEngine().Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict := map[string]string{}
	wantKeys := map[string]bool{}
	for _, sr := range ref {
		for _, r := range sr.Results {
			wantVerdict[r.Test.Name+"|"+r.Stack.Name()] = r.Verdict.String()
		}
	}
	for _, s := range stacks {
		for _, tst := range tests {
			wantKeys[tricheck.JobKey(tst, s)] = true
		}
	}

	cachePath := filepath.Join(t.TempDir(), "memo.json")
	srv, c := newService(t, server.Config{CachePath: cachePath})

	req := client.Request{Family: "mp", ISA: "base", Variant: "both"}
	var verdicts []client.Verdict
	sum, err := c.Verify(context.Background(), req, func(v client.Verdict) error {
		verdicts = append(verdicts, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Same verdicts, delivered exactly once each.
	if len(verdicts) != total {
		t.Fatalf("streamed %d verdicts, want %d", len(verdicts), total)
	}
	seen := map[string]bool{}
	for _, v := range verdicts {
		k := v.Test + "|" + v.Stack
		if seen[k] {
			t.Fatalf("verdict for %s delivered twice", k)
		}
		seen[k] = true
		if want, ok := wantVerdict[k]; !ok || v.Verdict != want {
			t.Fatalf("%s: verdict %q over HTTP, want %q", k, v.Verdict, want)
		}
		if !wantKeys[v.Key] {
			t.Fatalf("%s: streamed memo fingerprint %q is not a JobKey of the sweep", k, v.Key)
		}
	}

	// Same tallies, stack for stack and family for family.
	if sum.Done != total || sum.Total != total || len(sum.Stacks) != len(ref) {
		t.Fatalf("summary %+v, want done=total=%d over %d stacks", sum, total, len(ref))
	}
	for i, sr := range ref {
		got := sum.Stacks[i]
		if got.Stack != sr.Stack.Name() {
			t.Fatalf("summary stack %d = %q, want %q (order must match SelectStacks)", i, got.Stack, sr.Stack.Name())
		}
		want := fmt.Sprintf("%d/%d/%d/%d/%d", sr.Tally.Bugs, sr.Tally.Strict, sr.Tally.Equivalent, sr.Tally.Total, sr.Tally.SpecifiedBugs)
		if have := fmt.Sprintf("%d/%d/%d/%d/%d", got.Tally.Bugs, got.Tally.Strict, got.Tally.Equivalent, got.Tally.Total, got.Tally.SpecifiedBugs); have != want {
			t.Fatalf("stack %s tally %s over HTTP, want %s", got.Stack, have, want)
		}
	}
	if sum.Bugs+sum.Strict+sum.Equivalent != total {
		t.Fatalf("summary verdict tallies %d+%d+%d don't cover %d", sum.Bugs, sum.Strict, sum.Equivalent, total)
	}

	// Warm restart: flush the snapshot, boot a fresh server on it, and
	// repeat the request — every verdict served from the cache, zero
	// verifier executions.
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	srv2, c2 := newService(t, server.Config{CachePath: cachePath})
	var cached, uncached int
	sum2, err := c2.Verify(context.Background(), req, func(v client.Verdict) error {
		if v.Cached {
			cached++
		} else {
			uncached++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Engine().Executions() != 0 {
		t.Fatalf("warm restart executed %d verifier jobs, want 0", srv2.Engine().Executions())
	}
	if cached != total || uncached != 0 {
		t.Fatalf("warm restart: %d cached + %d uncached verdicts, want all %d cached", cached, uncached, total)
	}
	if sum2.Done != total || sum2.Cached != total {
		t.Fatalf("warm summary %+v, want done=cached=%d", sum2, total)
	}
	for i := range ref {
		if sum2.Stacks[i].Tally != sum.Stacks[i].Tally {
			t.Fatalf("warm tallies differ on stack %s", sum2.Stacks[i].Stack)
		}
	}

	// The service's own counters agree.
	resp, err := http.Get(c2.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("\ntricheckd_verdicts_streamed_total %d\n", total),
		fmt.Sprintf("\ntricheckd_memo_entries %d\n", len(wantKeys)),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("warm server /metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestInlineModelSpecMatchesInProcessSweep: posting a custom µspec
// model through the wire yields exactly the verdicts and memo
// fingerprints of an in-process sweep over the same spec — and the
// fingerprints are keyed by config, so the same request hits the warm
// cache no matter what the model is called.
func TestInlineModelSpecMatchesInProcessSweep(t *testing.T) {
	spec, err := tricheck.ParseModelSpec("uspec custom-rWM\nvariant ours\nrelax WR\nrelax WW\nforwarding\norder-same-addr-rr\nrespect-deps\n")
	if err != nil {
		t.Fatal(err)
	}
	model, err := tricheck.NewModel(*spec)
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := tricheck.SelectStacksModels("base", []*tricheck.Model{model})
	if err != nil {
		t.Fatal(err)
	}
	tests := tricheck.CoRR.Generate()
	ref, err := tricheck.NewEngine().Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict := map[string]string{}
	for _, sr := range ref {
		for _, r := range sr.Results {
			wantVerdict[r.Test.Name+"|"+r.Stack.Name()] = r.Verdict.String()
		}
	}

	srv, c := newService(t, server.Config{})
	req := client.Request{Family: "corr", ISA: "base", Models: []string{spec.EmitSpec()}}
	got := 0
	sum, err := c.Verify(context.Background(), req, func(v client.Verdict) error {
		got++
		k := v.Test + "|" + v.Stack
		if want, ok := wantVerdict[k]; !ok || v.Verdict != want {
			return fmt.Errorf("%s: verdict %q over HTTP, want %q", k, v.Verdict, want)
		}
		if want := tricheck.JobKey(findTest(tests, v.Test), stacks[0]); v.Key != want {
			return fmt.Errorf("%s: memo fingerprint %q, want %q", k, v.Key, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(tests) || sum.Done != len(tests) {
		t.Fatalf("streamed %d verdicts, summary %+v; want %d", got, sum, len(tests))
	}

	// Renaming the model changes nothing semantic: the repeat request is
	// served entirely from the warm memo cache.
	renamed := *spec
	renamed.Name = "same-machine-other-name"
	execs := srv.Engine().Executions()
	cached := 0
	if _, err := c.Verify(context.Background(), client.Request{Family: "corr", ISA: "base", Models: []string{renamed.EmitSpec()}}, func(v client.Verdict) error {
		if v.Cached {
			cached++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if srv.Engine().Executions() != execs {
		t.Fatalf("renamed model re-executed %d jobs, want 0", srv.Engine().Executions()-execs)
	}
	if cached != len(tests) {
		t.Fatalf("renamed model: %d cached verdicts, want %d", cached, len(tests))
	}
}

func findTest(tests []*tricheck.Test, name string) *tricheck.Test {
	for _, t := range tests {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// TestCoverageEndpointMatchesInProcessLedger is the coverage e2e
// acceptance test: after identical sweeps, the ledger served by GET
// /v1/coverage is bit-for-bit the ledger of an in-process Engine — and
// a warm, all-memoized repeat sweep leaves it bit-for-bit unchanged
// while the discrimination vectors stay fully populated from cached
// verdicts.
func TestCoverageEndpointMatchesInProcessLedger(t *testing.T) {
	tests := tricheck.MP.Generate()
	stacks, err := tricheck.SelectStacks("base", "both")
	if err != nil {
		t.Fatal(err)
	}

	// In-process reference ledger.
	eng := tricheck.NewEngine()
	if _, err := eng.Sweep(tests, stacks, 0); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(eng.Coverage().Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	srv, c := newService(t, server.Config{})
	req := client.Request{Family: "mp", ISA: "base", Variant: "both"}
	sum, err := c.Verify(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.CoverageSnapshot(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("HTTP coverage ledger differs from the in-process ledger:\nhttp: %s\nproc: %s", got, want)
	}

	// The NDJSON summary's coverage totals are the same ledger's totals.
	if sum.Coverage != snap.Totals {
		t.Fatalf("summary coverage totals %+v != ledger totals %+v", sum.Coverage, snap.Totals)
	}
	if sum.Coverage.Vectors != len(tests)*len(stacks) || sum.Coverage.AxiomsFired == 0 {
		t.Fatalf("degenerate summary coverage totals %+v", sum.Coverage)
	}

	// Warm all-memoized rerun: zero executions, and the ledger — matrix
	// untouched, vectors re-recorded from cached verdicts — is
	// byte-identical.
	execs := srv.Engine().Executions()
	if _, err := c.Verify(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	if srv.Engine().Executions() != execs {
		t.Fatalf("warm rerun executed %d jobs, want 0", srv.Engine().Executions()-execs)
	}
	warm, err := c.CoverageSnapshot(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if wb, _ := json.Marshal(warm); string(wb) != string(want) {
		t.Fatalf("warm rerun changed the coverage ledger:\nwarm: %s\ncold: %s", wb, want)
	}

	// ?vectors=0 drops the vector payload but not the totals.
	lean, err := c.CoverageSnapshot(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Vectors) != 0 || lean.Totals != snap.Totals {
		t.Fatalf("vectors=0 snapshot: %d vectors, totals %+v (want 0 vectors, totals %+v)", len(lean.Vectors), lean.Totals, snap.Totals)
	}
}

// TestVerifyCallbackAbort pins the client-side cancellation path: a
// callback error tears the stream down and surfaces as the Verify
// error.
func TestVerifyCallbackAbort(t *testing.T) {
	_, c := newService(t, server.Config{})
	boom := fmt.Errorf("enough")
	n := 0
	_, err := c.Verify(context.Background(), client.Request{Family: "corr", ISA: "base", Variant: "curr"}, func(client.Verdict) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the callback's", err)
	}
}

// TestVerifyServerError surfaces a 400 as a useful error.
func TestVerifyServerError(t *testing.T) {
	_, c := newService(t, server.Config{})
	_, err := c.Verify(context.Background(), client.Request{Family: "nope"}, nil)
	if err == nil {
		t.Fatal("want error for unknown family")
	}
}
