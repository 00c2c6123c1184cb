package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"tricheck/internal/compile"
	"tricheck/internal/farm"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/uspec"
)

// This file is the engine's verification-farm frontend: it turns suites
// and sweeps into fingerprinted (test, stack) jobs for internal/farm,
// memoizes their portable verdicts, and reassembles deterministic
// SuiteResults from the streamed results.

// Memo is the portable (pointer-free) verdict of one (test, stack) job:
// everything step 4 derives except the per-test "specified outcome"
// classification, which bind recomputes. Memos are what the farm's memo
// cache stores and what cache snapshots serialize. A memo, its maps and
// its slices are shared between the cache and every bound TestResult,
// and an executed group's members share them too: members that observe
// the same outcomes hold one *Memo, an Equivalent memo's Observable is
// C11's Allowed map, and a member that observes every candidate holds
// C11's All when the two universes are equal (see compare). So all of
// them are read-only; JSON encodes a shared map to the same bytes as a
// copy.
type Memo struct {
	Allowed        map[mem.Outcome]bool `json:"allowed"`
	Observable     map[mem.Outcome]bool `json:"observable"`
	BugOutcomes    []mem.Outcome        `json:"bugs,omitempty"`
	StrictOutcomes []mem.Outcome        `json:"strict,omitempty"`
	Verdict        Verdict              `json:"verdict"`
	Racy           bool                 `json:"racy,omitempty"`
	// Opsim carries the operational backend's enumeration (BackendOpsim)
	// or cross-check diff (BackendBoth); nil on uhb memos, so legacy
	// snapshots round-trip unchanged.
	Opsim *OpsimMemo `json:"opsim,omitempty"`
}

// bind rebinds a portable verdict to a concrete test and stack in r,
// recomputing the specified-outcome classification from the test's
// designated interesting outcome.
func (m *Memo) bind(r *TestResult, t *litmus.Test, s Stack) {
	*r = TestResult{
		Test:           t,
		Stack:          s,
		Allowed:        m.Allowed,
		Observable:     m.Observable,
		BugOutcomes:    m.BugOutcomes,
		StrictOutcomes: m.StrictOutcomes,
		Verdict:        m.Verdict,
		Racy:           m.Racy,
		Opsim:          m.Opsim,
	}
	r.SpecifiedAllowed = m.Allowed[t.Specified]
	r.SpecifiedObservable = m.Observable[t.Specified]
	r.SpecifiedBug = r.SpecifiedObservable && !r.SpecifiedAllowed
}

// StackFingerprint returns a canonical content hash of a stack: the
// compiler mapping's recipes and the µspec model's configuration bits
// (uspec.Config.ContentKey — the model's config fingerprint input),
// with display names excluded. Editing a single mapping recipe or model
// axiom therefore changes the fingerprint — and invalidates exactly the
// memo entries that depend on it — while renaming does not: two
// different custom models that share a display name never share memo
// entries, and a renamed identical config still gets warm hits.
func StackFingerprint(s Stack) string {
	var b strings.Builder
	m := s.Mapping
	fmt.Fprintf(&b, "arch=%d;", m.Arch)
	recipe := func(tag string, r compile.Recipe) {
		fmt.Fprintf(&b, "%s:", tag)
		for _, it := range r {
			fmt.Fprintf(&b, "%d.%d.%d.%d.%t.%t.%t,", it.Kind, it.Pred, it.Succ, it.Cum, it.Aq, it.Rl, it.SC)
		}
		b.WriteByte(';')
	}
	recipe("lr", m.LoadRlx)
	recipe("la", m.LoadAcq)
	recipe("ls", m.LoadSC)
	recipe("sr", m.StoreRlx)
	recipe("se", m.StoreRel)
	recipe("ss", m.StoreSC)
	recipe("fa", m.FenceAcq)
	recipe("fr", m.FenceRel)
	recipe("far", m.FenceAcqRel)
	recipe("fs", m.FenceSC)
	b.WriteString(s.Model.Config.ContentKey())
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// JobKey is the farm/cache key of one (test, stack) verification job.
func JobKey(t *litmus.Test, s Stack) string {
	return jobKeyFromFPs(t.Fingerprint(), StackFingerprint(s))
}

// jobKeyFromFPs combines precomputed fingerprints into the one key
// format shared by JobKey, SweepStream and cache snapshots.
func jobKeyFromFPs(testFP, stackFP string) string {
	return testFP + "+" + stackFP
}

// defaultMemoCapacity holds three full 28-stack paper sweeps with room
// to spare.
const defaultMemoCapacity = 1 << 18

// EnableMemo attaches a memoized (test, stack) result cache of the
// given capacity (0 = default) to the engine. Subsequent RunSuite/Sweep
// runs only execute jobs whose fingerprints are not yet cached. Call it
// before the first run; it is not safe concurrently with runs.
func (e *Engine) EnableMemo(capacity int) {
	if capacity <= 0 {
		capacity = defaultMemoCapacity
	}
	e.memo = farm.NewCache[string, *Memo](capacity)
}

// EnableMemoIfAbsent attaches a memo cache of the given capacity
// (0 = default) unless one is already enabled — for services that
// require memoization but must not clobber an embedder's configured
// cache.
func (e *Engine) EnableMemoIfAbsent(capacity int) {
	if e.memo == nil {
		e.EnableMemo(capacity)
	}
}

// MemoStats returns the memo-cache counters; ok is false when no memo
// cache is enabled.
func (e *Engine) MemoStats() (stats farm.CacheStats, ok bool) {
	if e.memo == nil {
		return farm.CacheStats{}, false
	}
	return e.memo.Stats(), true
}

// LoadMemoSnapshot merges a JSON snapshot (written by SaveMemoSnapshot)
// into the memo cache, enabling the cache first if needed. A missing
// file satisfies os.IsNotExist.
func (e *Engine) LoadMemoSnapshot(path string) error {
	if e.memo == nil {
		e.EnableMemo(0)
	}
	return farm.LoadSnapshot(path, e.memo)
}

// SaveMemoSnapshot writes the memo cache to path as JSON, atomically.
func (e *Engine) SaveMemoSnapshot(path string) error {
	if e.memo == nil {
		return fmt.Errorf("core: no memo cache enabled")
	}
	return farm.SaveSnapshot(path, e.memo)
}

// MemoSnapshot encodes the whole memo cache in the snapshot envelope
// (the bytes SaveMemoSnapshot writes), for shipping a warm cache to
// another engine over MergeMemoSnapshot. An engine without a memo cache
// yields an empty (but valid) snapshot.
func (e *Engine) MemoSnapshot() ([]byte, error) {
	if e.memo == nil {
		return farm.EncodeSnapshot(farm.NewCache[string, *Memo](0))
	}
	return farm.EncodeSnapshot(e.memo)
}

// MergeMemoSnapshot merges snapshot bytes (a MemoSnapshot or a
// snapshot file's contents) into the memo cache, enabling the cache
// first if needed. Last-write-wins per key; existing entries outside
// the snapshot are untouched.
func (e *Engine) MergeMemoSnapshot(data []byte) error {
	if e.memo == nil {
		e.EnableMemo(0)
	}
	return farm.DecodeSnapshot(data, e.memo)
}

// LoadMemoSnapshotLenient loads a memo-cache snapshot, tolerating the
// recoverable cases: a missing file is a silent cold start, and an
// incompatible-version snapshot warns on w and cold-starts (the next
// SaveMemoSnapshot overwrites it). Any other error is returned.
func LoadMemoSnapshotLenient(eng *Engine, path string, w io.Writer) error {
	switch err := eng.LoadMemoSnapshot(path); {
	case err == nil, os.IsNotExist(err):
		return nil
	case errors.Is(err, farm.ErrSnapshotVersion):
		fmt.Fprintf(w, "ignoring stale cache (will be rewritten): %v\n", err)
		return nil
	default:
		return err
	}
}

// LastFarmStats returns the scheduler statistics of the most recent
// sweep: a Run (a one-pair sweep), RunSuite, Sweep or SweepStream call.
// Jobs, Unique, CacheHits, Executed and Skipped count (test, stack)
// pairs; Stolen and Workers count the farm's group jobs, one per
// (test, mapping) among the pairs that executed.
func (e *Engine) LastFarmStats() farm.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastFarm
}

// Progress is one streamed farm result, delivered as soon as the job
// lands (in completion order, not submission order).
type Progress struct {
	// Done counts delivered results so far; Total is the sweep size.
	Done, Total int
	// Stack and Test identify the job; Verdict is its outcome.
	Stack, Test string
	Verdict     Verdict
	// Key is the job's memo fingerprint (JobKey): the canonical identity
	// a remote consumer can compare against its own JobKey computation.
	Key string
	// Cached reports that the result came from the memo cache or from
	// deduplication rather than an execution.
	Cached bool
	// SpecifiedBug marks the test's designated interesting outcome as
	// forbidden-yet-observable on this stack (the paper's headline
	// counting), precomputed here so a stream consumer can tally it
	// without the test definition.
	SpecifiedBug bool
	// Opsim carries the operational backend's side of the result (nil on
	// uhb sweeps): the cross-check diff and witness for a Divergence
	// verdict, or the skip note for an out-of-capability config.
	Opsim *OpsimMemo
}

// SweepStream runs tests × stacks as a single verification-farm run and
// returns one SuiteResult per stack, in stack order with per-stack
// results in test order. When events is non-nil every result is
// additionally streamed to it for progressive reporting; the channel is
// closed before SweepStream returns. A slow consumer backpressures the
// farm, so buffer the channel or drain it promptly.
func (e *Engine) SweepStream(tests []*litmus.Test, stacks []Stack, workers int, events chan<- Progress) ([]*SuiteResult, error) {
	return e.SweepStreamBackend(context.Background(), tests, stacks, workers, BackendUHB, events)
}

// SweepStreamBackend is SweepStream under a context on an explicit
// backend. Cancelling ctx stops scheduling the sweep's remaining farm
// jobs (in-flight jobs finish, are streamed, and stay in the memo cache
// — an aborted sweep never poisons it) and returns ctx's error. The
// events channel, when non-nil, is closed before returning in every
// case. Jobs carry backend-tagged memo keys (so a warm uhb cache never
// satisfies an opsim or cross-check sweep) and run the backend's
// evaluation thunk.
//
// Memo keys, deduplication, the memo cache and every streamed result
// are per (test, stack) pair: pairs with equal keys execute once and
// the rest alias the first; a warm pass serves memoized pairs without
// scheduling anything. The farm's unit of work is coarser — one group
// per test and compiler mapping among the pairs still to execute (see
// group) — so a test is compiled and enumerated once per mapping, not
// once per stack, and its groups share one C11 evaluation, which the
// sweep drops when it returns. A finished group puts every member in
// the memo cache before streaming them, even when the sweep has been
// cancelled.
func (e *Engine) SweepStreamBackend(ctx context.Context, tests []*litmus.Test, stacks []Stack, workers int, backend Backend, events chan<- Progress) ([]*SuiteResult, error) {
	if events != nil {
		defer close(events)
	}
	if err := ValidateBackendStacks(backend, stacks); err != nil {
		return nil, err
	}
	// The sweep inherits the caller's trace (e.g. a /v1/verify request
	// span) so sampled verdict spans correlate with it.
	trace, parentSpan := obs.TraceFromContext(ctx)
	// Pairs are laid out stack-major in test order, so pair i is
	// (stack i/len(tests), test i%len(tests)).
	n := len(tests)
	total := n * len(stacks)
	needKeys := e.memo != nil || events != nil
	testFPs := make([]string, n)
	for i, t := range tests {
		testFPs[i] = t.Fingerprint()
	}
	members := make([]member, len(stacks))
	for si, s := range stacks {
		members[si] = newMember(s)
	}
	// cols[si] is stack si's column in the ledger's verdict vectors plus
	// one, 0 until the stack's first result lands and interns it.
	cols := make([]int, len(stacks))
	// Stack fingerprints serve the memo keys and stack dedup, so a
	// one-stack sweep with no memo cache or event stream, such as Run,
	// leaves its one fingerprint empty.
	stackFPs := make([]string, len(stacks))
	if needKeys || len(stacks) > 1 {
		for si, s := range stacks {
			stackFPs[si] = StackFingerprint(s)
		}
	}
	// Memo keys are strings; only the memo cache and the event stream
	// read them.
	var keys []string
	if needKeys {
		keys = make([]string, 0, total)
		for _, sfp := range stackFPs {
			for _, tfp := range testFPs {
				keys = append(keys, jobKeyFromFPs(tfp, sfp)+backend.keySuffix())
			}
		}
	}

	// Deduplicate by key without building one per pair: two pairs share a
	// key exactly when their tests share a fingerprint and their stacks
	// do. So the first pair with a key is the one whose test and stack are
	// each the first with their fingerprint, and later ones are aliases
	// that receive a copy of its result.
	canonT, aliasT := canonicalIndexes(testFPs)
	canonS, aliasS := canonicalIndexes(stackFPs)
	stats := farm.Stats{Jobs: total}
	pending := make([]int, 0, total)
	for i := 0; i < total; i++ {
		if si, ti := i/n, i%n; canonS[si] == si && canonT[ti] == ti {
			pending = append(pending, i)
		}
	}
	stats.Unique = len(pending)
	if stats.Jobs > stats.Unique {
		farmMetrics.Deduped.Add(uint64(stats.Jobs - stats.Unique))
	}

	// Every pair's result is bound into one slab, allocated up front. One
	// slab per stack, allocated as the stack's first result lands, ran
	// the paper sweep about 4% slower on 2 vCPUs: the up-front slab
	// raises the heap goal early, so the sweep runs one garbage
	// collection fewer.
	results := make([]*TestResult, total)
	slab := make([]TestResult, total)
	done := 0
	// emit lands one pair's result, bound to its test and stack as it
	// arrives. Calls are serialized: the warm pass runs before the farm
	// starts, and the farm serializes OnResult.
	emit := func(i int, m *Memo, cached bool) {
		si, ti := i/n, i%n
		t := tests[ti]
		r := &slab[i]
		m.bind(r, t, stacks[si])
		results[i] = r
		sname := members[si].name
		// Discrimination vectors record here — the one point that sees
		// every result, memoized or executed, so warm all-cached reruns
		// still populate the ledger's verdict-vector matrix.
		if cols[si] == 0 {
			cols[si] = e.ledger.Column(sname) + 1
		}
		e.ledger.RecordColumn(t.Name, cols[si]-1, uint8(m.Verdict))
		if events == nil {
			return
		}
		done++
		events <- Progress{
			Done:         done,
			Total:        total,
			Stack:        sname,
			Test:         t.Name,
			Verdict:      m.Verdict,
			Key:          keys[i],
			Cached:       cached,
			SpecifiedBug: r.SpecifiedBug,
			Opsim:        m.Opsim,
		}
	}
	// deliver lands a canonical pair's result and its aliases', in pair
	// order: every stack sharing the pair's stack fingerprint, crossed
	// with every test sharing its test fingerprint.
	deliver := func(i int, m *Memo, cached bool) {
		emit(i, m, cached)
		si, ti := i/n, i%n
		if len(aliasS[si]) == 0 && len(aliasT[ti]) == 0 {
			return
		}
		for _, s := range append([]int{si}, aliasS[si]...) {
			for _, t := range append([]int{ti}, aliasT[ti]...) {
				if a := s*n + t; a != i {
					emit(a, m, true)
				}
			}
		}
	}

	// Warm pass: serve whatever the memo cache holds without scheduling.
	if e.memo != nil {
		uncached := pending[:0]
		for _, i := range pending {
			start := time.Now()
			m, ok := e.memo.Get(keys[i])
			farmMetrics.ObserveLookup(start, ok)
			if ok {
				stats.CacheHits++
				deliver(i, m, true)
				continue
			}
			uncached = append(uncached, i)
		}
		pending = uncached
	}

	groups := groupPairs(pending, n, members)
	// A test's groups share one C11 slot, indexed by test, for as long as
	// the sweep runs. A sweep the memo cache served whole allocates none.
	var slots []hllSlot
	if len(groups) > 0 {
		slots = make([]hllSlot, n)
	}
	// The groups of a sweep share its threads' static tiers, dropped when
	// the sweep returns. A one-group sweep, such as Run, has nothing to
	// share them with and makes none.
	var tiers *uspec.Tiers
	if len(groups) > 1 && backend != BackendOpsim {
		var models []*uspec.Model
		for si := range members {
			mb := &members[si]
			if mb.mi = slices.Index(models, mb.stack.Model); mb.mi < 0 {
				mb.mi = len(models)
				models = append(models, mb.stack.Model)
			}
		}
		tiers = uspec.NewTiers(len(models))
	}
	// A finished group's memos wait in its slot of finished until
	// delivery reads and clears it: the farm keeps every job's value
	// until it returns, so a job's value is empty and the farm holds no
	// memo.
	finished := make([][]*Memo, len(groups))
	var executed atomic.Int64
	jobs := make([]farm.Job[int, struct{}], len(groups))
	for gi := range groups {
		g := &groups[gi]
		g.test, g.hll, g.tiers = tests[g.pairs[0]%n], &slots[g.pairs[0]%n], tiers
		jobs[gi] = farm.Job[int, struct{}]{Key: gi, Run: func() (struct{}, error) {
			executed.Add(int64(len(g.pairs)))
			ms, err := e.evaluate(g, backend, trace, parentSpan)
			if err == nil && e.memo != nil {
				for j, i := range g.pairs {
					e.memo.Put(keys[i], ms[j])
				}
			}
			finished[gi] = ms
			return struct{}{}, err
		}}
	}
	_, gstats, err := farm.Run(jobs, farm.Options[int, struct{}]{
		Workers: workers,
		Context: ctx,
		Metrics: farmMetrics,
		OnResult: func(gi int, _ struct{}, _ bool) {
			ms := finished[gi]
			finished[gi] = nil
			for j, i := range groups[gi].pairs {
				deliver(i, ms[j], false)
			}
		},
	})
	// Pairs count as executed when their group ran, error or not; the
	// rest of the unserved pairs were never scheduled.
	stats.Executed = int(executed.Load())
	stats.Skipped = stats.Unique - stats.CacheHits - stats.Executed
	stats.Stolen, stats.Workers = gstats.Stolen, gstats.Workers
	e.mu.Lock()
	e.lastFarm = stats
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Reassemble per-stack results in the historical test ordering. An
	// empty test list yields no SuiteResult at all.
	out := make([]*SuiteResult, 0, len(stacks))
	if n == 0 {
		return out, nil
	}
	for si, s := range stacks {
		sr := &SuiteResult{Stack: s, Results: results[si*n : (si+1)*n : (si+1)*n], ByFamily: map[string]*Tally{}}
		for ti, r := range sr.Results {
			sr.Tally.Add(r)
			name := tests[ti].Shape.Name
			fam := sr.ByFamily[name]
			if fam == nil {
				fam = &Tally{}
				sr.ByFamily[name] = fam
			}
			fam.Add(r)
		}
		out = append(out, sr)
	}
	return out, nil
}

// groupPairs groups a sweep's pairs still to execute by (test, mapping),
// in order of first appearance: pending is in pair order, so groups come
// out mapping-major in test order. One counting pass numbers and sizes
// the groups, and a second lays every group's pairs, and pointers to its
// members in the sweep's table, out in one array each. The groups' test
// and C11 slot are left to the caller.
func groupPairs(pending []int, n int, members []member) []group {
	// Mappings are numbered in order of first appearance among the stacks.
	mapIdx := make([]int, len(members))
	var mappings []*compile.Mapping
	for si, mb := range members {
		j := slices.Index(mappings, mb.stack.Mapping)
		if j < 0 {
			j = len(mappings)
			mappings = append(mappings, mb.stack.Mapping)
		}
		mapIdx[si] = j
	}
	// groupOf[mapping*n+test] is the group's number plus one, 0 for none
	// yet; sizes[g] counts group g's pairs.
	groupOf := make([]int32, n*len(mappings))
	var sizes []int
	for _, i := range pending {
		k := mapIdx[i/n]*n + i%n
		if groupOf[k] == 0 {
			sizes = append(sizes, 0)
			groupOf[k] = int32(len(sizes))
		}
		sizes[groupOf[k]-1]++
	}
	groups := make([]group, len(sizes))
	pairs := make([]int, len(pending))
	ptrs := make([]*member, len(pending))
	from := 0
	for g, size := range sizes {
		groups[g].pairs = pairs[from : from : from+size]
		groups[g].members = ptrs[from : from : from+size]
		from += size
	}
	for _, i := range pending {
		g := &groups[groupOf[mapIdx[i/n]*n+i%n]-1]
		g.pairs = append(g.pairs, i)
		g.members = append(g.members, &members[i/n])
	}
	return groups
}

// canonicalIndexes maps each fingerprint to the index of the first equal
// one, and lists each such first index's later duplicates, ascending.
func canonicalIndexes(fps []string) (canon []int, aliases map[int][]int) {
	canon = make([]int, len(fps))
	if len(fps) < 2 {
		return canon, nil
	}
	first := make(map[string]int, len(fps))
	aliases = map[int][]int{}
	for i, fp := range fps {
		c, ok := first[fp]
		if !ok {
			c = i
			first[fp] = i
		} else {
			aliases[c] = append(aliases[c], i)
		}
		canon[i] = c
	}
	return canon, aliases
}

// isaFlavours expands an ISA flavour selector into the (base, base+a)
// pair, base first.
func isaFlavours(isaFlavour string) (flavours []bool, err error) {
	switch isaFlavour {
	case "base":
		return []bool{true}, nil
	case "base+a":
		return []bool{false}, nil
	case "both":
		return []bool{true, false}, nil
	}
	return nil, fmt.Errorf("core: unknown ISA flavour %q (want base, base+a or both)", isaFlavour)
}

// riscvMapping returns the Figure 15 RISC-V mapping for an ISA flavour
// and MCM variant: the intuitive mapping pairs with Curr models, the
// refined one with Ours.
func riscvMapping(base bool, v uspec.Variant) *compile.Mapping {
	switch {
	case base && v == uspec.Curr:
		return compile.RISCVBaseIntuitive
	case base && v == uspec.Ours:
		return compile.RISCVBaseRefined
	case !base && v == uspec.Curr:
		return compile.RISCVAtomicsIntuitive
	default:
		return compile.RISCVAtomicsRefined
	}
}

// SelectStacksModels pairs an explicit model list — registry builtins,
// -model-file specs, or enumerated lattice configs — with the Figure 15
// RISC-V mapping matching each model's variant, over the selected ISA
// flavours (base first, models in input order within a flavour). Every
// model must be non-nil and pass µspec validation: a frontend that lets
// an unknown name or an illegal spec through gets a named error here
// rather than a meaningless sweep.
func SelectStacksModels(isaFlavour string, models []*uspec.Model) ([]Stack, error) {
	flavours, err := isaFlavours(isaFlavour)
	if err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: no models selected")
	}
	seen := map[string]int{}
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("core: unknown model at position %d", i)
		}
		if m.Name == "" {
			return nil, fmt.Errorf("core: model at position %d has no name", i)
		}
		if err := m.Config.Validate(); err != nil {
			return nil, fmt.Errorf("core: illegal model %q: %w", m.Name, err)
		}
		// Stacks are reported by display name, so two models sharing a
		// (name, variant) would be indistinguishable in every stream,
		// summary and CSV row even though their memo keys differ.
		full := m.FullName()
		if j, dup := seen[full]; dup {
			return nil, fmt.Errorf("core: models %d and %d share the display name %s; rename one", j, i, full)
		}
		seen[full] = i
	}
	out := make([]Stack, 0, len(flavours)*len(models))
	for _, base := range flavours {
		for _, m := range models {
			out = append(out, Stack{Mapping: riscvMapping(base, m.Variant), Model: m})
		}
	}
	return out, nil
}

// ResolveModels expands an MCM version selector ("curr", "ours" or
// "both") to the registry's Table 7 models, built once and shared — the
// model half of SelectStacks.
func ResolveModels(variant string) ([]*uspec.Model, error) {
	switch variant {
	case "curr":
		return uspec.Models(uspec.Curr), nil
	case "ours":
		return uspec.Models(uspec.Ours), nil
	case "both":
		return append(uspec.Models(uspec.Curr), uspec.Models(uspec.Ours)...), nil
	}
	return nil, fmt.Errorf("core: unknown MCM version %q (want curr, ours or both)", variant)
}

// ResolveModel finds one builtin model by name under a single-variant
// selector ("curr" or "ours"), with an error naming the known set when
// the lookup misses — the frontends' -model flag resolution.
func ResolveModel(name, variant string) (*uspec.Model, error) {
	var v uspec.Variant
	switch variant {
	case "curr":
		v = uspec.Curr
	case "ours":
		v = uspec.Ours
	default:
		return nil, fmt.Errorf("core: unknown MCM version %q (want curr or ours)", variant)
	}
	if m := uspec.ModelByName(name, v); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("core: unknown model %q under %s (known: %s)",
		name, variant, strings.Join(uspec.Builtins().Names(), ", "))
}

// LoadModels reads and validates µspec model spec files (the frontends'
// repeatable -model-file flag).
func LoadModels(paths []string) ([]*uspec.Model, error) {
	models := make([]*uspec.Model, 0, len(paths))
	for _, path := range paths {
		s, err := uspec.LoadSpecFile(path)
		if err != nil {
			return nil, fmt.Errorf("core: model file %w", err)
		}
		models = append(models, uspec.New(*s))
	}
	return models, nil
}

// SelectStacksFiles resolves stacks for -model-file frontends: it loads
// and validates the spec files and pairs each model with its variant's
// mapping. variantSet reports whether the caller's -variant flag was
// explicitly given — model specs carry their own variant, so combining
// the two is rejected here once, with the same contract the service
// enforces for inline models.
func SelectStacksFiles(isaFlavour string, modelFiles []string, variantSet bool) ([]Stack, error) {
	if variantSet {
		return nil, fmt.Errorf("core: -variant selects builtin models; a -model-file spec carries its own variant — drop one of the two")
	}
	models, err := LoadModels(modelFiles)
	if err != nil {
		return nil, err
	}
	return SelectStacksModels(isaFlavour, models)
}

// SelectStacks resolves the stack selectors shared by every frontend
// (tricheck, trisynth, tricheckd): an ISA flavour ("base", "base+a" or
// "both") and an MCM version ("curr", "ours" or "both") expand to the
// corresponding rows of the Figure 15 matrix, in the fixed order
// base-curr, base-ours, base+a-curr, base+a-ours so that every frontend
// reports the same sweep in the same order. The models come from the
// builtin registry: built once, shared across every call.
func SelectStacks(isaFlavour, variant string) ([]Stack, error) {
	models, err := ResolveModels(variant)
	if err != nil {
		// Surface the ISA-flavour error first when both are bad, matching
		// the historical check order.
		if _, ferr := isaFlavours(isaFlavour); ferr != nil {
			return nil, ferr
		}
		return nil, err
	}
	return SelectStacksModels(isaFlavour, models)
}
