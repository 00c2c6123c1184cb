// Package server implements tricheckd: a long-running HTTP verification
// service over the TriCheck farm. One shared core.Engine stays warm
// across requests — its memo cache is loaded from and snapshotted to
// disk, and its pooled µhb evaluators keep their buffers — so a request
// pays only for jobs nobody has verified before. A request's sweep
// evaluates each of its tests under C11 once and keeps nothing of it
// after the sweep ends.
//
// Endpoints:
//
//	POST /v1/verify  stream per-(test, stack) verdicts as NDJSON in farm
//	                 completion order, terminated by a summary record;
//	                 every record carries the request's trace ID
//	GET  /v1/traces  the N slowest retained spans (requests and sampled
//	                 verdict jobs), slowest first, as JSON
//	GET  /v1/coverage the engine's verification-coverage ledger as JSON:
//	                 per-(model, axiom) fired/edges/cycles matrix,
//	                 (test, config) verdict vectors (?vectors=0 omits
//	                 them) and totals
//	GET  /v1/memo/snapshot the whole memo cache in the farm snapshot
//	                 envelope (the format of a -cache file)
//	POST /v1/memo/load merge a posted snapshot into the memo cache
//	GET  /metrics    the process obs registry plus the service and
//	                 memo-cache counters in Prometheus text exposition
//	                 format — the one export of every counter
//	GET  /debug/pprof/* runtime profiles, only with Config.EnablePprof
//	GET  /healthz    liveness probe
//
// A disconnected or cancelled client aborts its sweep via request
// context: remaining farm jobs are never scheduled, finished jobs stay
// in the shared memo cache (an abort cannot poison it), and concurrent
// requests are unaffected. A buffered-channel limiter bounds concurrent
// sweeps for backpressure, and each sweep's farm worker count is clamped
// to a per-request budget.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/report"
)

// maxRequestBytes bounds a /v1/verify body (inline litmus sources).
const maxRequestBytes = 16 << 20

// maxSnapshotBytes bounds a /v1/memo/load body. Memo snapshots are far
// larger than request bodies — a full paper sweep's cache serializes to
// tens of MB — so they get their own cap.
const maxSnapshotBytes = 256 << 20

// writeTimeout is the per-record deadline for streaming writes. A
// client that stops reading mid-stream (connection open, kernel buffer
// full) would otherwise block enc.Encode forever with the request
// context never cancelled — pinning a limiter slot and the sweep's farm
// workers until restart. A missed deadline fails the write, which
// cancels the sweep like a disconnect.
const writeTimeout = 30 * time.Second

// Config configures a Server.
type Config struct {
	// Engine, when non-nil, is used (and kept warm) instead of a fresh
	// one — embedders can share it with in-process sweeps. The
	// tricheck_* series on /metrics are process-wide, not per engine: a
	// server whose process also holds another engine reports the sum of
	// both engines' counters.
	Engine *core.Engine
	// CachePath, when non-empty, warm-starts the engine's memo cache
	// from this JSON snapshot at construction and is where SaveSnapshot
	// flushes it (tricheckd does so on graceful shutdown).
	CachePath string
	// MaxInFlight bounds concurrently-sweeping verify requests; further
	// requests queue on the limiter until a slot frees or their context
	// is cancelled (0 = 4).
	MaxInFlight int
	// MaxWorkers is the per-request farm worker budget; a request asking
	// for more (or not asking) gets exactly this many (0 = GOMAXPROCS).
	MaxWorkers int
	// MemoCapacity bounds the engine's memo cache when this server
	// enables it (0 = the engine default, which comfortably holds
	// several full paper sweeps). A long-lived service fed arbitrary
	// inline litmus sources needs the LRU bound; without it the cache —
	// and every shutdown snapshot — grows without limit. Ignored when
	// Config.Engine already has a memo cache.
	MemoCapacity int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose process internals and a CPU profile
	// perturbs in-flight sweeps, so the operator opts in per deployment.
	EnablePprof bool
	// Log, when non-nil, receives request/shutdown notes.
	Log *log.Logger
}

// Server is the tricheckd HTTP service. Create it with New and mount
// Handler.
type Server struct {
	eng        *core.Engine
	cachePath  string
	maxWorkers int
	pprofOn    bool
	sem        chan struct{}
	log        *log.Logger
	start      time.Time

	// Counters are per-server (not globally registered), keeping tests
	// and multiple instances independent; /metrics reads them.
	requests atomic.Int64
	inflight atomic.Int64
	errors   atomic.Int64
	cancels  atomic.Int64
	verdicts atomic.Int64
}

// New builds a Server, warm-starting the memo cache from
// Config.CachePath when set (a missing or version-stale snapshot is a
// cold start, not an error).
func New(cfg Config) (*Server, error) {
	eng := cfg.Engine
	if eng == nil {
		eng = core.NewEngine()
	}
	eng.EnableMemoIfAbsent(cfg.MemoCapacity)
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4
	}
	maxWorkers := cfg.MaxWorkers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{
		eng:        eng,
		cachePath:  cfg.CachePath,
		maxWorkers: maxWorkers,
		pprofOn:    cfg.EnablePprof,
		sem:        make(chan struct{}, maxInFlight),
		log:        logger,
		start:      time.Now(),
	}
	if s.cachePath != "" {
		if err := core.LoadMemoSnapshotLenient(eng, s.cachePath, logWriter{logger}); err != nil {
			return nil, fmt.Errorf("server: loading cache %s: %w", s.cachePath, err)
		}
		if st, ok := eng.MemoStats(); ok {
			logger.Printf("cache %s: %d warm entries", s.cachePath, st.Len)
		}
	}
	return s, nil
}

// Engine returns the server's (shared) verification engine.
func (s *Server) Engine() *core.Engine { return s.eng }

// SaveSnapshot flushes the memo cache to Config.CachePath; it is a
// no-op without one. tricheckd calls it after graceful HTTP shutdown so
// the next boot starts warm.
func (s *Server) SaveSnapshot() error {
	if s.cachePath == "" {
		return nil
	}
	if err := s.eng.SaveMemoSnapshot(s.cachePath); err != nil {
		return err
	}
	if st, ok := s.eng.MemoStats(); ok {
		s.log.Printf("cache %s: flushed %d entries", s.cachePath, st.Len)
	}
	return nil
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/v1/memo/snapshot", s.handleMemoSnapshot)
	mux.HandleFunc("/v1/memo/load", s.handleMemoLoad)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/coverage", s.handleCoverage)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleMetrics renders the process obs registry (farm, memo,
// verdict-phase and prof metrics) followed by this server's own
// counters and the memo cache's size in Prometheus text exposition
// format. The per-server counters (see the struct comment) are
// formatted here rather than double-registered in the global registry.
// In tricheckd one engine serves the process, so the registry's
// verdict and memo counters are this server's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
	writePromCounter(w, "tricheckd_requests_total", "Verify requests accepted.", s.requests.Load())
	writePromGauge(w, "tricheckd_requests_inflight", "Verify requests currently sweeping.", s.inflight.Load())
	writePromCounter(w, "tricheckd_request_errors_total", "Verify requests failed by a service error.", s.errors.Load())
	writePromCounter(w, "tricheckd_requests_cancelled_total", "Verify requests aborted by client disconnect/cancel.", s.cancels.Load())
	writePromCounter(w, "tricheckd_verdicts_streamed_total", "NDJSON verdict records written to clients.", s.verdicts.Load())
	writePromGauge(w, "tricheckd_uptime_seconds", "Seconds since server construction.", int64(time.Since(s.start).Seconds()))
	if st, ok := s.eng.MemoStats(); ok {
		writePromGauge(w, "tricheckd_memo_entries", "Verdicts held in the memo cache.", int64(st.Len))
		writePromGauge(w, "tricheckd_memo_capacity", "Memo cache LRU capacity in entries.", int64(st.Cap))
	}
}

func writePromCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writePromGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// handleCoverage serves the engine coverage ledger's snapshot: engine
// lifetime state, deterministic down to the marshaled bytes for a fixed
// ledger state, so two scrapes with no sweep in between are
// byte-identical and an in-process ledger comparison can be exact.
// ?vectors=0 omits the (test, config) verdict vectors, which dominate
// the payload after large sweeps.
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Coverage().Snapshot()
	if r.URL.Query().Get("vectors") == "0" {
		snap.Vectors = nil
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

// handleTraces serves the slow-span ring, slowest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	traces := obs.DefaultTraces.Slowest()
	if traces == nil {
		traces = []obs.TraceRecord{}
	}
	enc.Encode(traces)
}

// handleMemoSnapshot serves the whole memo cache in the farm snapshot
// envelope — the bytes a -cache file holds — so another node can warm
// up from this one through /v1/memo/load.
func (s *Server) handleMemoSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	data, err := s.eng.MemoSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMemoLoad merges a posted memo snapshot into this server's cache
// (last write wins per key; keys absent from the snapshot are kept). A
// truncated or version-skewed snapshot is a 400 and leaves the cache
// untouched.
func (s *Server) handleMemoLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.eng.MergeMemoSnapshot(data); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if st, ok := s.eng.MemoStats(); ok {
		s.log.Printf("memo load: cache now %d entries", st.Len)
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req api.VerifyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBadRequest(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	tests, stacks, backend, err := resolve(&req)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.maxWorkers {
		workers = s.maxWorkers
	}

	// Global backpressure: wait for a sweep slot or for the client to
	// give up. The derived ctx lets a failed stream write abort the
	// sweep even while the connection is technically still open.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// Every request gets a trace: a root span in the slow-span ring, and
	// the trace ID threaded through the sweep context (sampled verdict
	// jobs become child spans) and echoed in every NDJSON record.
	span := obs.DefaultTraces.Start(0, 0, "verify")
	trace := span.Trace()
	traceHex := trace.String()
	if req.Suite != "" {
		span.Attr("suite", req.Suite)
	}
	span.Attr("tests", fmt.Sprint(len(tests)))
	span.Attr("stacks", fmt.Sprint(len(stacks)))
	defer span.End()
	ctx = obs.ContextWithTrace(ctx, trace, span.ID())
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return
	}
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	begin := time.Now()
	s.log.Printf("verify[%s]: %d tests × %d stacks, %d workers", traceHex, len(tests), len(stacks), workers)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	events := make(chan core.Progress, 256)
	type sweepOut struct {
		results []*core.SuiteResult
		err     error
	}
	outc := make(chan sweepOut, 1)
	go func() {
		results, err := s.eng.SweepStreamBackend(ctx, tests, stacks, workers, backend, events)
		outc <- sweepOut{results, err}
	}()

	// Stream every event; when the client goes away (or stalls past the
	// write deadline) the write fails, cancel() aborts the farm, and we
	// keep draining so the sweep's OnResult sender can finish.
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	// arm keeps a write deadline recent enough that any connection
	// write — a coalesced flush or a mid-burst buffer spill — fails
	// within ~writeTimeout of a client stall, without paying a deadline
	// update per record. Best-effort: ErrNotSupported is fine.
	var armedAt time.Time
	arm := func() {
		if time.Since(armedAt) > writeTimeout/4 {
			armedAt = time.Now()
			rc.SetWriteDeadline(armedAt.Add(writeTimeout))
		}
	}
	var tr report.Tracker
	clientOK := true
	pending := 0
	for ev := range events {
		tr.Observe(ev)
		if !clientOK {
			continue
		}
		arm()
		rec := api.VerdictRecord{
			Type:         "verdict",
			Trace:        traceHex,
			Done:         ev.Done,
			Total:        ev.Total,
			Test:         ev.Test,
			Stack:        ev.Stack,
			Verdict:      ev.Verdict.String(),
			Key:          ev.Key,
			Cached:       ev.Cached,
			SpecifiedBug: ev.SpecifiedBug,
		}
		if backend != core.BackendUHB {
			rec.Backend = backend.String()
		}
		if ev.Verdict == core.Divergence && ev.Opsim != nil {
			// The uhb observable set is reconstructible from the diff:
			// (opsim ∖ opsim-only) ∪ uhb-only, already sorted inputs.
			rec.Divergence = divergenceJSON(ev.Opsim, uhbObservableOf(ev.Opsim))
		}
		if err := enc.Encode(rec); err != nil {
			clientOK = false
			cancel()
			continue
		}
		s.verdicts.Add(1)
		// Coalesce flushes: one chunk per burst (channel momentarily
		// drained) or per 256 records, not one TCP packet per ~150-byte
		// verdict — warm sweeps stream tens of thousands of records.
		if pending++; len(events) == 0 || pending >= 256 {
			pending = 0
			flush()
		}
	}
	out := <-outc
	if out.err != nil {
		// A cancelled request context is the client exercising the
		// documented disconnect contract, not a service failure — keep
		// the error counter meaningful for alerting.
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			s.cancels.Add(1)
		} else {
			s.errors.Add(1)
		}
		s.log.Printf("verify[%s]: aborted after %d/%d: %v", traceHex, tr.Done, tr.Total, out.err)
		if clientOK {
			rc.SetWriteDeadline(time.Now().Add(writeTimeout))
			enc.Encode(api.ErrorRecord{Type: "error", Error: out.err.Error()})
			flush()
		}
		return
	}
	if !clientOK {
		return
	}
	rc.SetWriteDeadline(time.Now().Add(writeTimeout))
	enc.Encode(summarize(out.results, &tr, traceHex, backend, s.eng.Coverage().TotalsNow()))
	flush()
	s.log.Printf("verify[%s]: %d/%d done in %s (bugs=%d strict=%d equiv=%d divergent=%d cached=%d)",
		traceHex, tr.Done, tr.Total, time.Since(begin).Round(time.Millisecond), tr.Bugs, tr.Strict, tr.Equivalent, tr.Divergent, tr.Cached)
}

// writeBadRequest writes a structured 400 body: the resolver's typed
// field errors when available, else a bare error message in the same
// shape.
func writeBadRequest(w http.ResponseWriter, err error) {
	var bad *BadRequestError
	resp := api.ErrorResponse{Error: err.Error()}
	if errors.As(err, &bad) {
		resp = bad.Resp
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(resp)
}

// uhbObservableOf reconstructs the axiomatic observable set from a
// cross-check diff: (opsim observable ∖ opsim-only) ∪ uhb-only.
func uhbObservableOf(op *core.OpsimMemo) []string {
	only := make(map[mem.Outcome]bool, len(op.OpsimOnly))
	for _, o := range op.OpsimOnly {
		only[o] = true
	}
	out := make([]mem.Outcome, 0, len(op.Observable)+len(op.UhbOnly))
	for _, o := range op.Observable {
		if !only[o] {
			out = append(out, o)
		}
	}
	out = append(out, op.UhbOnly...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return outcomeStrings(out)
}

// logWriter adapts a *log.Logger to io.Writer for the lenient cache
// loader's warning output.
type logWriter struct{ l *log.Logger }

func (w logWriter) Write(p []byte) (int, error) {
	w.l.Printf("%s", p)
	return len(p), nil
}
