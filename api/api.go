// Package api is the versioned wire schema of the tricheckd verification
// service: the /v1/verify request body, the NDJSON records it streams,
// and the /v1/stats and /v1/coverage response shapes. Both the server
// (internal/server) and the Go client (client) import this package, so
// the two sides can never disagree about the schema — and external
// consumers can depend on it without importing server internals.
//
// Compatibility contract: within a major version (Version), existing
// fields keep their names, types and meaning; new fields are added with
// omitempty so their absence is byte-identical to older payloads. The
// golden test in api_test.go locks the encoding. One exception: v1
// dropped the fields only tricheckd's multi-node sharding mode used —
// the request's "keys", the verdict record's "worker", and the
// per-worker dispatch block of the summary and stats records — when
// that mode was removed. A request that still sends "keys" gets a 400.
package api

// Version is the wire-schema major version, matching the /v1/ URL prefix.
const Version = "v1"

// VerifyRequest is the JSON body of POST /v1/verify. Exactly one of
// Litmus, Suite or Family selects the tests; ISA and Variant select the
// stacks (empty = "both").
type VerifyRequest struct {
	// Litmus holds inline herd C litmus sources to verify.
	Litmus []string `json:"litmus,omitempty"`
	// Suite selects a built-in suite: "paper" (the 1,701-test Figure 15
	// suite) or "all" (every shipped shape, fully expanded).
	Suite string `json:"suite,omitempty"`
	// Family selects one built-in litmus family by shape name (mp, sb,
	// wrc, ...), fully expanded over the memory orders.
	Family string `json:"family,omitempty"`
	// ISA is the stack selector's ISA flavour: base, base+a or both
	// (default both).
	ISA string `json:"isa,omitempty"`
	// Variant is the MCM version: curr, ours or both (default both).
	// Mutually exclusive with Models (an inline model spec carries its
	// own variant).
	Variant string `json:"variant,omitempty"`
	// Models holds inline µspec model specs (the uspec spec text format)
	// to verify instead of the builtin Table 7 matrix. Each spec is
	// validated and paired with the Figure 15 mapping of its declared
	// variant over the selected ISA flavours; memo-cache identity comes
	// from the spec's config fingerprint, so a custom model never
	// collides with a same-named builtin.
	Models []string `json:"models,omitempty"`
	// Backend selects the verdict engine: "uhb" (default, axiomatic µhb),
	// "opsim" (operational enumeration; every selected model must be
	// within the simulators' capability), or "both" (uhb verdicts with an
	// operational second opinion; disagreements stream as "Divergence"
	// verdicts carrying a Divergence payload).
	Backend string `json:"backend,omitempty"`
	// Workers requests a farm worker count; the server clamps it to its
	// per-request budget (0 = the budget itself).
	Workers int `json:"workers,omitempty"`
}

// VerdictRecord is one streamed (test, stack) verdict, emitted in farm
// completion order.
type VerdictRecord struct {
	Type string `json:"type"` // "verdict"
	// Trace is the request's trace ID (hex): every record of one /v1/verify
	// stream carries the same ID, correlating it with /v1/traces spans and
	// server logs.
	Trace string `json:"trace,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Test  string `json:"test"`
	Stack string `json:"stack"`
	// Verdict is Bug, OverlyStrict, Equivalent or — under backend=both —
	// Divergence.
	Verdict string `json:"verdict"`
	// Key is the job's memo fingerprint (core.JobKey, backend-tagged for
	// non-uhb backends): test content hash + stack content hash,
	// comparable across processes.
	Key string `json:"key"`
	// Cached reports a memo-cache hit or deduplicated job (no verifier
	// execution).
	Cached bool `json:"cached"`
	// Backend names the verdict engine when it is not the default uhb.
	Backend string `json:"backend,omitempty"`
	// SpecifiedBug marks the test's designated interesting outcome as
	// forbidden-yet-observable on this stack — the paper's headline
	// counting. It rides on the record so a stream consumer can tally
	// specified_bugs per stack without re-running step 4.
	SpecifiedBug bool `json:"specified_bug,omitempty"`
	// Divergence carries the cross-check detail when Verdict is
	// "Divergence" (backend=both only).
	Divergence *Divergence `json:"divergence,omitempty"`
}

// Divergence is the payload of a Divergence verdict: the two observable
// sets, their symmetric difference, and an operational trace witness for
// one outcome the axiomatic model forbids.
type Divergence struct {
	// UhbObservable / OpsimObservable are the two backends' full
	// observable sets, sorted.
	UhbObservable   []string `json:"uhb_observable"`
	OpsimObservable []string `json:"opsim_observable"`
	// UhbOnly lists outcomes only the µhb model observes; OpsimOnly those
	// only the simulator reaches. At least one is non-empty.
	UhbOnly   []string `json:"uhb_only,omitempty"`
	OpsimOnly []string `json:"opsim_only,omitempty"`
	// WitnessOutcome is the opsim-only outcome Witness reaches; Witness
	// is the concrete interleaving (one action per line). Both are empty
	// when the divergence is uhb-only (an unreachable outcome has no
	// operational witness).
	WitnessOutcome string   `json:"witness_outcome,omitempty"`
	Witness        []string `json:"witness,omitempty"`
}

// TallyJSON is a verdict tally in wire form.
type TallyJSON struct {
	Bugs       int `json:"bugs"`
	Strict     int `json:"strict"`
	Equivalent int `json:"equivalent"`
	// Divergent counts backend=both cross-check disagreements (absent on
	// single-backend runs).
	Divergent     int `json:"divergent,omitempty"`
	Total         int `json:"total"`
	SpecifiedBugs int `json:"specified_bugs"`
}

// FamilyTally is one litmus family's tally within a stack.
type FamilyTally struct {
	Family string `json:"family"`
	TallyJSON
}

// StackSummary is one stack's aggregated result, mirroring
// core.SuiteResult: the overall tally plus per-family tallies in sorted
// family order (the same order the CSV reporter emits).
type StackSummary struct {
	Stack    string        `json:"stack"`
	Tally    TallyJSON     `json:"tally"`
	Families []FamilyTally `json:"families"`
	// OpsimSkipped carries the capability reason when backend=both could
	// not cross-check this stack's model (absent when it could, and on
	// single-backend runs).
	OpsimSkipped string `json:"opsim_skipped,omitempty"`
}

// SummaryRecord is the stream's terminal record: the running tallies of
// the progress tracker (done/total/bugs/strict/equivalent/cached) plus
// the per-stack aggregation. On an aborted sweep Done < Total and
// Stacks is empty.
type SummaryRecord struct {
	Type string `json:"type"` // "summary"
	// Trace is the request's trace ID (hex), matching every verdict
	// record of the same stream.
	Trace      string `json:"trace,omitempty"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Bugs       int    `json:"bugs"`
	Strict     int    `json:"strict"`
	Equivalent int    `json:"equivalent"`
	// Divergent counts Divergence verdicts (backend=both only; absent
	// otherwise).
	Divergent int `json:"divergent,omitempty"`
	Cached    int `json:"cached"`
	// Backend names the verdict engine when it is not the default uhb.
	Backend string `json:"backend,omitempty"`
	// ElapsedSeconds is first-to-last result wall time;
	// TestsPerSecond = Done / ElapsedSeconds (0 on a degenerate window).
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	TestsPerSecond float64        `json:"tests_per_sec"`
	Stacks         []StackSummary `json:"stacks"`
	// Coverage is the engine ledger's totals at summary time — lifetime
	// engine state, not per-request (the shared memoizing engine makes a
	// per-request cut meaningless). The full per-(model, axiom) matrix
	// and verdict vectors live at GET /v1/coverage.
	Coverage CoverageTotals `json:"coverage"`
}

// ErrorRecord is the stream's terminal record when the sweep failed.
type ErrorRecord struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// FieldError names one invalid request field and why it was rejected.
type FieldError struct {
	// Field is the JSON field name from VerifyRequest ("suite",
	// "backend", "models[1]", ...).
	Field   string `json:"field"`
	Message string `json:"message"`
}

// ErrorResponse is the JSON body of a 4xx response: a human-readable
// error plus the offending field(s) when the failure is attributable.
type ErrorResponse struct {
	Error  string       `json:"error"`
	Fields []FieldError `json:"fields,omitempty"`
}

// MemoStatsJSON is the engine memo cache's counter snapshot.
type MemoStatsJSON struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Len     int     `json:"len"`
	Cap     int     `json:"cap"`
	HitRate float64 `json:"hit_rate"`
}

// IncrementalStatsJSON mirrors the tricheck_uhb_incremental_*_total
// counters in the stats payload, with the reuse ratio precomputed.
type IncrementalStatsJSON struct {
	Reuse      uint64  `json:"reuse"`
	Rebuild    uint64  `json:"rebuild"`
	ReuseRatio float64 `json:"reuse_ratio"`
}

// StatsRecord is the GET /v1/stats response.
type StatsRecord struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	RequestsTotal    int64   `json:"requests_total"`
	RequestsInFlight int64   `json:"requests_inflight"`
	RequestErrors    int64   `json:"request_errors"`
	// RequestCancels counts requests aborted by client disconnect or
	// context cancellation — the supported abort flow, kept separate
	// from RequestErrors so the error counter stays alertable.
	RequestCancels   int64 `json:"requests_cancelled"`
	VerdictsStreamed int64 `json:"verdicts_streamed"`
	// TestsPerSecond is the cumulative streaming rate: verdicts streamed
	// over the wall-clock seconds requests spent sweeping.
	TestsPerSecond float64 `json:"tests_per_sec"`
	// JobsExecuted counts actual verifier executions (neither memoized
	// nor deduplicated) over the server's lifetime.
	JobsExecuted uint64 `json:"jobs_executed"`
	// Divergences counts backend=both cross-check disagreements over the
	// server's lifetime (absent while zero).
	Divergences uint64         `json:"divergences,omitempty"`
	Memo        *MemoStatsJSON `json:"memo,omitempty"`
	// Incremental reports the µhb incremental-acyclicity engine's
	// effectiveness: how often the per-candidate verdict reused the
	// maintained topological order vs. rebuilt it from scratch.
	Incremental *IncrementalStatsJSON `json:"incremental,omitempty"`
}

// The /v1/coverage shapes are the coverage ledger's own snapshot types:
// internal/cover builds them directly, so wire consumers never import
// engine internals.

// AxiomRow is one axiom's coverage counters within a model matrix.
type AxiomRow struct {
	Axiom  string `json:"axiom"`
	Fired  uint64 `json:"fired"`
	Edges  uint64 `json:"edges"`
	Cycles uint64 `json:"cycles"`
}

// ModelMatrix is one model's per-axiom coverage and verdict counts.
// Axioms lists only rows with at least one nonzero count, in catalogue
// order.
type ModelMatrix struct {
	Model    string            `json:"model"`
	Jobs     uint64            `json:"jobs"`
	Verdicts map[string]uint64 `json:"verdicts,omitempty"`
	Axioms   []AxiomRow        `json:"axioms"`
}

// VectorRecord is one (test, stack) verdict vector entry.
type VectorRecord struct {
	Test    string `json:"test"`
	Stack   string `json:"stack"`
	Verdict string `json:"verdict"`
}

// CoverageTotals is a coverage ledger's summary line: distinct axioms
// covered per kind (union over models), recorded jobs, and vector count.
type CoverageTotals struct {
	Models       int    `json:"models"`
	Jobs         uint64 `json:"jobs"`
	AxiomsFired  int    `json:"axioms_fired"`
	AxiomsEdged  int    `json:"axioms_edged"`
	AxiomsCycled int    `json:"axioms_cycled"`
	Vectors      int    `json:"vectors"`
}

// CoverageSnapshot is the GET /v1/coverage response: the per-(model,
// axiom) fired/edges/cycles matrix, the (test, config) verdict vectors,
// and the totals.
type CoverageSnapshot struct {
	Axioms  []string       `json:"axioms"`
	Models  []ModelMatrix  `json:"models"`
	Vectors []VectorRecord `json:"vectors,omitempty"`
	Totals  CoverageTotals `json:"totals"`
}
