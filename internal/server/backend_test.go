package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tricheck/api"
	"tricheck/internal/opsim"
	"tricheck/internal/uspec"
)

// scSpec is an inline no-relaxations µspec config (an SC machine) for
// backend tests; the miswire hook routes exactly this profile to the
// wrong simulator.
var scSpec = uspec.Config{Name: "SCtest", OrderSameAddrRR: true, RespectDeps: true, Variant: uspec.Curr}.EmitSpec()

// decode400 asserts a structured JSON 400 and returns its body.
func decode400(t *testing.T, resp *http.Response) api.ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("400 body is not an ErrorResponse: %v", err)
	}
	if er.Error == "" {
		t.Fatal("400 body has an empty error")
	}
	return er
}

// fieldNames flattens the field errors for assertion.
func fieldNames(er api.ErrorResponse) string {
	names := make([]string, len(er.Fields))
	for i, f := range er.Fields {
		names[i] = f.Field
	}
	return strings.Join(names, ",")
}

// TestVerify400NamesOffendingField: every rejection names the field(s)
// that caused it in a structured JSON body.
func TestVerify400NamesOffendingField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		name   string
		req    api.VerifyRequest
		fields string
	}{
		{"no selector", api.VerifyRequest{}, "litmus,suite,family"},
		{"two selectors", api.VerifyRequest{Family: "mp", Suite: "paper"}, "suite,family"},
		{"unknown suite", api.VerifyRequest{Suite: "nope"}, "suite"},
		{"unknown family", api.VerifyRequest{Family: "nope"}, "family"},
		{"bad isa", api.VerifyRequest{Family: "mp", ISA: "nope"}, "isa"},
		{"bad variant", api.VerifyRequest{Family: "mp", Variant: "nope"}, "variant"},
		{"bad litmus", api.VerifyRequest{Litmus: []string{"not litmus"}}, "litmus"},
		{"bad backend", api.VerifyRequest{Family: "mp", Backend: "axiomatic"}, "backend"},
		{"models+variant", api.VerifyRequest{Family: "mp", Variant: "curr", Models: []string{scSpec}}, "models,variant"},
		{"bad model spec", api.VerifyRequest{Family: "mp", Models: []string{"uspec ???"}}, "models[0]"},
		{"opsim unsupported", api.VerifyRequest{Family: "mp", Backend: "opsim", Variant: "curr"}, "backend"},
	} {
		er := decode400(t, postVerify(t, ts.URL, c.req))
		if got := fieldNames(er); got != c.fields {
			t.Errorf("%s: fields %q, want %q (error: %s)", c.name, got, c.fields, er.Error)
		}
	}
}

// TestVerifyBackendOpsim: an opsim-only sweep over a supported inline
// model streams backend-tagged records and agrees with the axiomatic
// verdicts on the same family.
func TestVerifyBackendOpsim(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	uhbV, _ := drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Family: "sb", ISA: "base", Models: []string{scSpec}}))
	execsAfterUhb := s.Engine().Executions()
	opV, opSum := drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Family: "sb", ISA: "base", Models: []string{scSpec}, Backend: "opsim"}))
	if len(opV) != len(uhbV) {
		t.Fatalf("opsim streamed %d records, uhb %d", len(opV), len(uhbV))
	}
	// Backend-tagged memo keys: the warm uhb cache must not satisfy the
	// opsim sweep — every opsim job executes.
	if got := s.Engine().Executions() - execsAfterUhb; got != uint64(len(opV)) {
		t.Errorf("opsim sweep executed %d jobs, want %d (uhb cache crosstalk)", got, len(opV))
	}
	uhbByTest := map[string]api.VerdictRecord{}
	for _, v := range uhbV {
		if v.Backend != "" {
			t.Fatalf("uhb record carries backend %q", v.Backend)
		}
		uhbByTest[v.Test] = v
	}
	for _, v := range opV {
		if v.Backend != "opsim" {
			t.Fatalf("opsim record backend %q, want opsim", v.Backend)
		}
		u := uhbByTest[v.Test]
		if v.Key == u.Key || !strings.HasSuffix(v.Key, "+opsim") {
			t.Fatalf("opsim key %q not backend-tagged (uhb key %q)", v.Key, u.Key)
		}
		if v.Verdict != u.Verdict {
			t.Errorf("%s: opsim verdict %s, uhb %s", v.Test, v.Verdict, u.Verdict)
		}
		if v.Cached {
			t.Errorf("%s: cold opsim record claims cached", v.Test)
		}
	}
	if opSum.Backend != "opsim" || opSum.Divergent != 0 {
		t.Errorf("opsim summary: backend=%q divergent=%d", opSum.Backend, opSum.Divergent)
	}
}

// TestVerifyBackendBothCleanAndSkip: backend=both over the builtin curr
// matrix cross-checks the supported configs with zero divergences and
// marks the unsupported ones skipped in the summary.
func TestVerifyBackendBothCleanAndSkip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	verdicts, sum := drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Family: "sb", ISA: "base", Variant: "curr", Backend: "both"}))
	for _, v := range verdicts {
		if v.Verdict == "Divergence" {
			t.Fatalf("%s on %s diverged: %+v", v.Test, v.Stack, v.Divergence)
		}
	}
	if sum.Divergent != 0 || sum.Backend != "both" {
		t.Fatalf("summary: backend=%q divergent=%d", sum.Backend, sum.Divergent)
	}
	skips := map[string]bool{}
	for _, ss := range sum.Stacks {
		skips[ss.Stack] = ss.OpsimSkipped != ""
	}
	for stack, skipped := range skips {
		supported := strings.Contains(stack, "+SC/") || strings.Contains(stack, "+WR/") ||
			strings.Contains(stack, "+rWR/") || strings.Contains(stack, "+TSO/") || strings.Contains(stack, "+nWR/")
		if skipped == supported {
			t.Errorf("stack %s: opsim_skipped=%v, want %v", stack, skipped, !supported)
		}
	}
}

// TestVerifyBackendBothDivergence is the service half of the
// divergence-path e2e: with the driver deliberately miswired, a
// backend=both sweep must stream Divergence records carrying the
// symmetric difference and a trace witness — and terminate with a
// summary, not an error record.
func TestVerifyBackendBothDivergence(t *testing.T) {
	opsim.SetMiswired(true)
	defer opsim.SetMiswired(false)
	_, ts := newTestServer(t, Config{})
	verdicts, sum := drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Family: "sb", ISA: "base", Models: []string{scSpec}, Backend: "both"}))
	var diverged int
	for _, v := range verdicts {
		if v.Verdict != "Divergence" {
			continue
		}
		diverged++
		d := v.Divergence
		if d == nil {
			t.Fatalf("%s: Divergence verdict without a payload", v.Test)
		}
		if len(d.OpsimOnly) == 0 || len(d.UhbObservable) == 0 || len(d.OpsimObservable) == 0 {
			t.Fatalf("%s: incomplete divergence payload: %+v", v.Test, d)
		}
		if d.WitnessOutcome == "" || len(d.Witness) == 0 {
			t.Fatalf("%s: divergence payload has no trace witness", v.Test)
		}
	}
	if diverged == 0 {
		t.Fatal("miswired both-backend sweep streamed no Divergence records")
	}
	if sum.Divergent != diverged {
		t.Errorf("summary divergent=%d, stream had %d", sum.Divergent, diverged)
	}
	if got := scrapeMetrics(t, ts.URL)[`tricheck_verdicts_total{verdict="Divergence"}`]; got < int64(diverged) {
		t.Errorf("/metrics counts %d Divergence verdicts, the stream had %d", got, diverged)
	}
}
