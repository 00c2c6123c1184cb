package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/corpus"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVerify(t *testing.T, url string, req api.VerifyRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainStreamE decodes a full NDJSON response into its verdicts and
// terminal summary. It is error-returning (no t.Fatal) so goroutines
// other than the test's may use it.
func drainStreamE(resp *http.Response) ([]api.VerdictRecord, *api.SummaryRecord, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %s", resp.Status)
	}
	var verdicts []api.VerdictRecord
	var summary *api.SummaryRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return nil, nil, fmt.Errorf("bad record %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "verdict":
			var v api.VerdictRecord
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				return nil, nil, err
			}
			verdicts = append(verdicts, v)
		case "summary":
			summary = new(api.SummaryRecord)
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("unexpected record type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return verdicts, summary, nil
}

func drainStream(t *testing.T, resp *http.Response) ([]api.VerdictRecord, *api.SummaryRecord) {
	t.Helper()
	verdicts, summary, err := drainStreamE(resp)
	if err != nil {
		t.Fatal(err)
	}
	return verdicts, summary
}

func TestVerifyRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/verify → %d, want 405", get.StatusCode)
	}
	for name, req := range map[string]api.VerifyRequest{
		"no selector":      {},
		"two selectors":    {Family: "mp", Suite: "paper"},
		"unknown family":   {Family: "nope"},
		"unknown suite":    {Suite: "nope"},
		"bad isa":          {Family: "mp", ISA: "nope"},
		"bad variant":      {Family: "mp", Variant: "nope"},
		"bad litmus batch": {Litmus: []string{"not litmus at all"}},
	} {
		resp := postVerify(t, ts.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", name, resp.StatusCode)
		}
	}
	raw, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(`{"family":`))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON → %d, want 400", raw.StatusCode)
	}
	// "keys" left the v1 schema; a client still sending it must hear so
	// rather than get a silently different sweep.
	raw, err = http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(`{"family":"mp","keys":["x"]}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"keys\"`) {
		t.Fatalf("keys field → %d %s, want the unknown-field 400", raw.StatusCode, msg)
	}
}

func TestVerifyInlineLitmusSources(t *testing.T) {
	var srcs []string
	for _, tst := range litmus.MP.Generate()[:3] {
		src, err := corpus.EmitString(tst)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	_, ts := newTestServer(t, Config{})
	resp := postVerify(t, ts.URL, api.VerifyRequest{Litmus: srcs, ISA: "base", Variant: "curr"})
	verdicts, summary := drainStream(t, resp)
	want := 3 * 7 // 3 tests × 7 base/curr stacks
	if len(verdicts) != want || summary == nil || summary.Total != want || summary.Done != want {
		t.Fatalf("got %d verdicts, summary %+v; want %d", len(verdicts), summary, want)
	}
	for _, v := range verdicts {
		if v.Key == "" || v.Test == "" || v.Stack == "" {
			t.Fatalf("incomplete verdict record %+v", v)
		}
	}
}

// TestVerifyKeepsNoCostCells: a cold inline /v1/verify executes every
// pair, and the server's engine keeps no cost-matrix cell for any of
// them. Only `tricheck top` turns the matrix on; a long-lived service
// fed distinct inline tests must not grow one cell per pair.
func TestVerifyKeepsNoCostCells(t *testing.T) {
	src, err := corpus.EmitString(litmus.SB.Generate()[0])
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{})
	verdicts, summary := drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Litmus: []string{src}, ISA: "base", Variant: "curr"}))
	if len(verdicts) != 7 || summary == nil || summary.Cached != 0 || srv.Engine().Executions() != 7 {
		t.Fatalf("got %d verdicts, summary %+v, %d executions; want 7 executed", len(verdicts), summary, srv.Engine().Executions())
	}
	if cells := srv.Engine().CostMatrix(); len(cells) != 0 {
		t.Errorf("engine holds %d cost cells after a cold verify, want none", len(cells))
	}
}

// TestVerifyInlineModelSpec: a request may carry its own µspec model as
// data. The custom model sweeps independently of a same-named builtin —
// different verdicts, disjoint memo fingerprints — and illegal or
// conflicting specs are 400s.
func TestVerifyInlineModelSpec(t *testing.T) {
	// An SC machine wearing the builtin's name: same display name as
	// Table 7's nMM, completely different ordering semantics.
	impostor := uspec.Config{
		Name: "nMM", Description: "SC machine named nMM",
		OrderSameAddrRR: true, RespectDeps: true, Variant: uspec.Curr,
	}
	_, ts := newTestServer(t, Config{})
	resp := postVerify(t, ts.URL, api.VerifyRequest{Family: "wrc", ISA: "base", Models: []string{impostor.EmitSpec()}})
	custom, customSum := drainStream(t, resp)
	wantStack := "riscv-base-intuitive+nMM/riscv-curr"
	if len(customSum.Stacks) != 1 || customSum.Stacks[0].Stack != wantStack {
		t.Fatalf("custom sweep stacks %+v, want one %s", customSum.Stacks, wantStack)
	}
	if customSum.Bugs != 0 || customSum.Strict == 0 {
		t.Fatalf("SC impostor tallies %+v, want bug-free and strict", customSum)
	}

	resp = postVerify(t, ts.URL, api.VerifyRequest{Family: "wrc", ISA: "base", Variant: "curr"})
	builtin, builtinSum := drainStream(t, resp)
	builtinKeys := map[string]bool{}
	builtinBugs := 0
	for _, v := range builtin {
		if v.Stack == wantStack {
			builtinKeys[v.Key] = true
			if v.Verdict == "Bug" {
				builtinBugs++
			}
		}
	}
	if len(builtinKeys) != len(custom) {
		t.Fatalf("builtin nMM streamed %d keys, custom %d", len(builtinKeys), len(custom))
	}
	if builtinBugs == 0 {
		t.Fatal("builtin nMM shows no bugs on wrc (test premise broken)")
	}
	for _, v := range custom {
		if builtinKeys[v.Key] {
			t.Fatalf("custom model shares memo fingerprint %s with the same-named builtin", v.Key)
		}
	}
	_ = builtinSum

	for name, req := range map[string]api.VerifyRequest{
		"bad spec syntax":     {Family: "mp", Models: []string{"uarch nope"}},
		"illegal spec":        {Family: "mp", Models: []string{"uspec x\nforwarding\norder-same-addr-rr\nrespect-deps\n"}},
		"models plus variant": {Family: "mp", Variant: "curr", Models: []string{impostor.EmitSpec()}},
		"models with bad isa": {Family: "mp", ISA: "nope", Models: []string{impostor.EmitSpec()}},
		"same-named models":   {Family: "mp", Models: []string{impostor.EmitSpec(), impostor.EmitSpec()}},
	} {
		resp := postVerify(t, ts.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestStatsAndDebugVars: /metrics is the one counter export. The JSON
// /v1/stats and the expvar /debug/vars are gone, and after one sweep
// /metrics carries every number /v1/stats served: the service's request,
// verdict and uptime series, the executed verdicts (jobs_executed and
// divergences), the memo lookups, the incremental engine's counters and
// the memo cache's size.
func TestStatsAndDebugVars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postVerify(t, ts.URL, api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"})
	verdicts, _ := drainStream(t, resp)

	for _, path := range []string{"/v1/stats", "/debug/vars"} {
		gone, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		gone.Body.Close()
		if gone.StatusCode != http.StatusNotFound {
			t.Fatalf("%s → %d, want 404", path, gone.StatusCode)
		}
	}

	series := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]int64{
		"tricheckd_requests_total":           1,
		"tricheckd_requests_inflight":        0,
		"tricheckd_request_errors_total":     0,
		"tricheckd_requests_cancelled_total": 0,
		"tricheckd_verdicts_streamed_total":  int64(len(verdicts)),
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	// The registry is process-wide, so earlier tests' sweeps may add to
	// these; this sweep alone makes each one nonzero.
	for _, name := range []string{
		`tricheck_farm_memo_total{outcome="miss"}`,
		"tricheckd_memo_entries",
		"tricheckd_memo_capacity",
	} {
		if series[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, series[name])
		}
	}
	var executed, incremental int64
	for _, v := range []string{"Equivalent", "OverlyStrict", "Bug", "Divergence"} {
		executed += series[`tricheck_verdicts_total{verdict="`+v+`"}`]
	}
	for _, kind := range []string{"reuse", "rebuild"} {
		incremental += series["tricheck_uhb_incremental_"+kind+"_total"]
	}
	if executed == 0 || incremental == 0 {
		t.Errorf("executed verdicts %d, incremental verdicts %d after a cold sweep, want both > 0", executed, incremental)
	}
	for _, name := range []string{`tricheck_farm_memo_total{outcome="hit"}`, "tricheckd_uptime_seconds"} {
		if _, ok := series[name]; !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// scrapeMetrics reads /metrics into a series → value map (histogram
// sums, the only non-integer samples, are skipped).
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			series[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// TestClientDisconnectStopsScheduling is the cancellation acceptance
// test: a client that goes away mid-stream stops its sweep's remaining
// farm jobs (observed via the engine's verifier-execution counter)
// without corrupting the shared cache for later requests.
func TestClientDisconnectStopsScheduling(t *testing.T) {
	eng := core.NewEngine()
	isa := "both"
	if testing.Short() {
		isa = "base"
	}
	s, ts := newTestServer(t, Config{Engine: eng, MaxWorkers: 1})

	// The widest builtin family: the cancellation window is the sweep's
	// runtime, and on a single-core host the busy farm goroutine can
	// starve this client goroutine for tens of milliseconds — a small
	// family's sweep can finish before the disconnect propagates.
	tests := litmus.IRIW.Generate()
	stacks, err := core.SelectStacks(isa, "both")
	if err != nil {
		t.Fatal(err)
	}
	total := len(tests) * len(stacks)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(api.VerifyRequest{Family: "iriw", ISA: isa, Variant: "both", Workers: 1})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one streamed verdict, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The handler notices, aborts the farm, and drains.
	deadline := time.Now().Add(30 * time.Second)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("request still in flight long after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	aborted := int(eng.Executions())
	if aborted >= total {
		t.Fatalf("disconnected sweep still executed all %d jobs", total)
	}
	if stats := eng.LastFarmStats(); stats.Skipped == 0 {
		t.Fatalf("no farm jobs skipped after disconnect: %+v", stats)
	}
	// The abort is the supported client flow: counted as a cancel, not
	// as a service error.
	if cancels, errs := s.cancels.Load(), s.errors.Load(); cancels != 1 || errs != 0 {
		t.Fatalf("disconnect accounted as cancels=%d errors=%d, want 1/0", cancels, errs)
	}

	// A follow-up full request completes, reuses the aborted run's
	// memos, and matches a fresh engine bit for bit.
	resp2 := postVerify(t, ts.URL, api.VerifyRequest{Family: "iriw", ISA: isa, Variant: "both"})
	verdicts, summary := drainStream(t, resp2)
	if len(verdicts) != total || summary == nil || summary.Done != total {
		t.Fatalf("follow-up request: %d verdicts, summary %+v", len(verdicts), summary)
	}
	if got := int(eng.Executions()); got != total {
		t.Fatalf("abort + completion executed %d jobs, want exactly the %d unique jobs", got, total)
	}
	ref, err := core.NewEngine().Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSummaryMatches(t, summary, ref)
}

// TestConcurrentRequestsSurviveACancelledPeer runs a full sweep
// concurrently with one that disconnects; the surviving request's
// results must be complete and correct.
func TestConcurrentRequestsSurviveACancelledPeer(t *testing.T) {
	eng := core.NewEngine()
	s, ts := newTestServer(t, Config{Engine: eng, MaxInFlight: 2, MaxWorkers: 2})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the doomed request
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		body, _ := json.Marshal(api.VerifyRequest{Family: "sb", Workers: 1})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		bufio.NewReader(resp.Body).ReadString('\n')
		cancel()
		resp.Body.Close()
	}()

	resp := postVerify(t, ts.URL, api.VerifyRequest{Family: "mp", ISA: "base", Variant: "both"})
	verdicts, summary := drainStream(t, resp)
	wg.Wait()

	tests := litmus.MP.Generate()
	stacks, err := core.SelectStacks("base", "both")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tests) * len(stacks); len(verdicts) != want {
		t.Fatalf("surviving request streamed %d verdicts, want %d", len(verdicts), want)
	}
	ref, err := core.NewEngine().Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSummaryMatches(t, summary, ref)

	deadline := time.Now().Add(30 * time.Second)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled peer still in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSummaryMatches checks a wire summary against in-process suite
// results: same stack order, same overall and per-family tallies.
func assertSummaryMatches(t *testing.T, summary *api.SummaryRecord, ref []*core.SuiteResult) {
	t.Helper()
	if summary == nil {
		t.Fatal("no summary record")
	}
	if len(summary.Stacks) != len(ref) {
		t.Fatalf("summary has %d stacks, want %d", len(summary.Stacks), len(ref))
	}
	for i, sr := range ref {
		ss := summary.Stacks[i]
		if ss.Stack != sr.Stack.Name() {
			t.Fatalf("stack %d: %q, want %q", i, ss.Stack, sr.Stack.Name())
		}
		if ss.Tally != tallyJSON(sr.Tally) {
			t.Fatalf("stack %s tally %+v, want %+v", ss.Stack, ss.Tally, sr.Tally)
		}
		fams := sr.FamilyNames()
		if len(ss.Families) != len(fams) {
			t.Fatalf("stack %s: %d families, want %d", ss.Stack, len(ss.Families), len(fams))
		}
		for j, fam := range fams {
			want := api.FamilyTally{Family: fam, TallyJSON: tallyJSON(*sr.ByFamily[fam])}
			if ss.Families[j] != want {
				t.Fatalf("stack %s family %s: %+v, want %+v", ss.Stack, fam, ss.Families[j], want)
			}
		}
	}
}

// TestLimiterQueuesRequests pins the backpressure contract: with one
// sweep slot, two concurrent requests serialize but both complete.
func TestLimiterQueuesRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	var wg sync.WaitGroup
	totals := make([]int, 2)
	errs := make([]error, 2)
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			verdicts, summary, err := drainStreamE(resp)
			if err != nil {
				errs[i] = err
				return
			}
			if summary != nil {
				totals[i] = len(verdicts)
			}
		}(i)
	}
	wg.Wait()
	want := len(litmus.CoRR.Generate()) * 7
	for i, n := range totals {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if n != want {
			t.Fatalf("request %d streamed %d verdicts, want %d", i, n, want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz → %s", resp.Status)
	}
}

func TestResolveSuitePaper(t *testing.T) {
	tests, stacks, backend, err := resolve(&api.VerifyRequest{Suite: "paper", ISA: "base", Variant: "curr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != len(litmus.PaperSuite()) || len(stacks) != 7 {
		t.Fatalf("paper suite resolved to %d tests × %d stacks", len(tests), len(stacks))
	}
	if backend != core.BackendUHB {
		t.Fatalf("default backend = %v, want uhb", backend)
	}
}
