package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tricheck/api"
	"tricheck/client"
	"tricheck/internal/core"
	"tricheck/internal/corpus"
	"tricheck/internal/farm"
	"tricheck/internal/litmus"
	"tricheck/internal/server"
)

// Request mix of service-stream. Requests come in blocks, each a seeded
// shuffle of one family request per (paper family, isa, variant)
// selector and inlinePerCombo inline requests per (isa, variant). A run
// sends whole blocks, so every run's latencies come from the same mix
// and the percentiles land in the same request classes on every seed.
// Within a block the larger requests go first, in seeded order among
// requests of one size, so a block ends on its smallest requests and no
// client waits long for the others at its end: with the shuffled order
// alone, whether a block ended on iriw over 28 stacks moved the block's
// throughput by a tenth.
const (
	inlinePerCombo = 2
	inlineTests    = 8  // synthesized tests per inline request
	serviceBlocks  = 60 // blocks generated in set-up, far more than a run sends
	// rssBlocks is how many blocks of requests have completed when the
	// loop samples peak RSS: cold inline requests grow the memo, so a
	// sample at a fixed point compares the same server state on a fast
	// host and a slow one.
	rssBlocks = 8
)

var (
	isaChoices     = []string{"base", "base+a", "both"}
	variantChoices = []string{"curr", "ours", "both"}
	blockSize      = len(isaChoices) * len(variantChoices) * (len(litmus.PaperShapes()) + inlinePerCombo)
)

// svcRequest is one /v1/verify request and how many verdict records
// its stream must carry.
type svcRequest struct {
	body api.VerifyRequest
	jobs int
}

// service is an in-process tricheckd on loopback, primed with the paper
// suite, and the seeded request stream its clients send.
type service struct {
	srv     *server.Server
	ts      *httptest.Server
	reqs    []svcRequest
	paper   *catalog
	ref     *reference // paper-sweep reference, for family summaries
	stacks  []core.Stack
	workers int
}

// newService builds the request stream, starts tricheckd with its
// default configuration and primes its memo with the paper suite.
func newService(seed uint64, workers int) (*service, error) {
	paper := newCatalog(litmus.PaperShapes())
	stacks, err := core.SelectStacks("both", "both")
	if err != nil {
		return nil, err
	}
	ref, err := loadReference("paper-sweep", paper, stacks)
	if err != nil {
		return nil, err
	}
	pool, err := synthCorpus()
	if err != nil {
		return nil, err
	}
	reqs, err := serviceRequests(seed, pool, serviceBlocks)
	if err != nil {
		return nil, err
	}
	srv, err := primedServer(paper, stacks, workers)
	if err != nil {
		return nil, err
	}
	return &service{
		srv: srv, ts: httptest.NewServer(srv.Handler()), reqs: reqs,
		paper: paper, ref: ref, stacks: stacks, workers: workers,
	}, nil
}

// primedServer is a default-configured tricheckd whose memo holds the
// whole paper suite over all 28 stacks.
func primedServer(paper *catalog, stacks []core.Stack, workers int) (*server.Server, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	tests := make([]*litmus.Test, paper.n)
	for i := range tests {
		tests[i] = paper.test(i)
	}
	if _, err := srv.Engine().Sweep(tests, stacks, workers); err != nil {
		return nil, err
	}
	return srv, nil
}

func (s *service) close() { s.ts.Close() }

// serviceRequests generates blocks of requests from the seed; inline
// tests are drawn from the pool without replacement, so none is sent
// twice and every inline request runs the verifier.
func serviceRequests(seed uint64, pool *catalog, blocks int) ([]svcRequest, error) {
	r := rng(seed)
	draw := r.Perm(pool.n)
	var out []svcRequest
	for range blocks {
		var block []svcRequest
		for _, isa := range isaChoices {
			for _, variant := range variantChoices {
				stacks, err := core.SelectStacks(isa, variant)
				if err != nil {
					return nil, err
				}
				for _, shape := range litmus.PaperShapes() {
					block = append(block, svcRequest{
						body: api.VerifyRequest{Family: shape.Name, ISA: isa, Variant: variant},
						jobs: variants(shape) * len(stacks),
					})
				}
				for range inlinePerCombo {
					req := svcRequest{body: api.VerifyRequest{ISA: isa, Variant: variant}, jobs: inlineTests * len(stacks)}
					for range inlineTests {
						if len(draw) == 0 {
							return nil, fmt.Errorf("service: synthesized pool of %d tests exhausted", pool.n)
						}
						t := pool.test(draw[0])
						draw = draw[1:]
						src, err := corpus.EmitString(t)
						if err != nil {
							return nil, err
						}
						req.body.Litmus = append(req.body.Litmus, src)
					}
					block = append(block, req)
				}
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		slices.SortStableFunc(block, func(a, b svcRequest) int { return cmp.Compare(b.jobs, a.jobs) })
		out = append(out, block...)
	}
	return out, nil
}

// sent is one completed request as its client saw it.
type sent struct {
	req            int // index into service.reqs
	client         int
	block          int // index into loopResult.blocks
	start          time.Time
	latency, first time.Duration
	records        int
	summary        *client.Summary
}

// block is one block of requests as the loop ran it, and the scale the
// probe runs on either side of it give.
type block struct {
	wall, cpu time.Duration
	records   int
	sc        scale
}

// loopResult is what the clients of one closed loop saw. wall and cpu
// sum the blocks, leaving out the probe runs between them. seen maps
// every streamed memo key to its verdict in verdict.String's spelling.
type loopResult struct {
	sent      []sent
	blocks    []block
	wall, cpu time.Duration
	rss       float64
	exhausted bool
	seen      map[string]string
}

// newClient is a client of the service with its own connection pool
// (at most one idle connection per worker) and no retries; close the
// returned transport's idle connections when done.
func (s *service) newClient() (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: s.workers}
	return &client.Client{BaseURL: s.ts.URL, HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1}, tr
}

// send sends request i as client c and waits for its summary record,
// adding every streamed (memo key, verdict) pair to seen.
func (s *service) send(cl *client.Client, i, c int, seen map[string]string) (sent, error) {
	x := sent{req: i, client: c, start: time.Now()}
	sum, err := cl.Verify(context.Background(), s.reqs[i].body, func(v client.Verdict) error {
		if x.records == 0 {
			x.first = time.Since(x.start)
		}
		x.records++
		got := v.Verdict
		if v.SpecifiedBug {
			got += specifiedSuffix
		}
		if old, ok := seen[v.Key]; !ok {
			seen[v.Key] = got
		} else if old != got {
			return mismatch("key %s streamed as %s and as %s", v.Key, old, got)
		}
		return nil
	})
	x.latency = time.Since(x.start)
	if err != nil {
		return x, fmt.Errorf("request %d: %w", i, err)
	}
	x.summary = sum
	return x, nil
}

// loop drives the server closed-loop from one client per worker, each
// sending its next request only when the previous one's summary record
// has arrived. It sends a block at a time, with a probe run between
// blocks while the server is idle, until the time budget is spent. The
// probe collects the heap, so set-up's garbage is not the loop's.
func (s *service) loop(budget time.Duration, p *probe) (*loopResult, error) {
	cl, tr := s.newClient()
	defer tr.CloseIdleConnections()

	res := &loopResult{seen: map[string]string{}}
	seen := make([]map[string]string, s.workers)
	for c := range seen {
		seen[c] = map[string]string{}
	}
	before := p.run()
	start := time.Now()
	for lo := 0; lo < len(s.reqs) && (lo == 0 || time.Since(start) < budget); lo += blockSize {
		var next atomic.Int64
		next.Store(int64(lo))
		per := make([][]sent, s.workers)
		errs := make([]error, s.workers)
		var wg sync.WaitGroup
		c0 := cpuTime()
		t0 := time.Now()
		for c := range s.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < lo+blockSize; i = int(next.Add(1) - 1) {
					x, err := s.send(cl, i, c, seen[c])
					if err != nil {
						errs[c] = err
						return
					}
					per[c] = append(per[c], x)
				}
			}()
		}
		wg.Wait()
		blk := block{wall: time.Since(t0), cpu: cpuTime() - c0}
		for c := range per {
			if errs[c] != nil {
				return res, errs[c]
			}
			for i := range per[c] {
				per[c][i].block = len(res.blocks)
				blk.records += per[c][i].records
			}
			res.sent = append(res.sent, per[c]...)
		}
		if len(res.blocks)+1 == rssBlocks {
			res.rss = peakRSSMiB() - p.arenaMiB()
		}
		after := p.run()
		blk.sc = p.between(before, after)
		before = after
		res.blocks = append(res.blocks, blk)
		res.wall += blk.wall
		res.cpu += blk.cpu
	}
	if res.rss == 0 { // fewer than rssBlocks blocks completed
		res.rss = peakRSSMiB() - p.arenaMiB()
	}
	for c := range seen {
		for k, v := range seen[c] {
			if old, ok := res.seen[k]; ok && old != v {
				return res, mismatch("key %s streamed as %s and as %s", k, old, v)
			}
			res.seen[k] = v
		}
	}
	res.exhausted = len(res.sent) == len(s.reqs)
	return res, nil
}

func (s *service) measure(budget time.Duration, p *probe) (*outcome, error) {
	lr, err := s.loop(budget, p)
	if err != nil {
		return &outcome{attempted: len(lr.sent) + 1, failed: 1}, err
	}
	if err := s.check(lr); err != nil {
		return nil, err
	}
	var lat, rawLat, first []float64
	for _, x := range lr.sent {
		sc := lr.blocks[x.block].sc
		lat = append(lat, x.latency.Seconds()*1e3*sc.wall)
		rawLat = append(rawLat, x.latency.Seconds()*1e3)
		first = append(first, x.first.Seconds()*1e3*sc.wall)
	}
	var rates, cpus, walls []float64
	records := 0
	for _, b := range lr.blocks {
		walls = append(walls, b.wall.Seconds())
		rates = append(rates, float64(b.records)/(b.wall.Seconds()*b.sc.wall))
		cpus = append(cpus, b.cpu.Seconds()*b.sc.cpu*1e6/float64(b.records))
		records += b.records
	}
	tail, _ := tailPercentile(len(lat))
	return &outcome{
		attempted: len(lr.sent),
		metrics: map[string]float64{
			"jobs_per_s":     median(rates),
			"cpu_us_per_job": median(cpus),
			"req_p50_ms":     percentile(lat, 50),
			"peak_rss_mb":    lr.rss,
		},
		meta: map[string]any{
			"requests": len(lr.sent), "block_walls_s": walls, "records": records,
			"measured_s": lr.wall.Seconds(), "exhausted": lr.exhausted,
			"req_p99_ms": percentile(lat, 99), "tail_percentile": tail,
			"first_record_p50_ms": percentile(first, 50),
			"raw_jobs_per_s":      float64(records) / lr.wall.Seconds(),
			"raw_cpu_us_per_job":  lr.cpu.Seconds() * 1e6 / float64(records),
			"raw_req_p50_ms":      percentile(rawLat, 50),
		},
	}, nil
}

// check verifies a loop after the fact: every request streamed exactly
// its jobs, every family summary matches the paper reference, and every
// streamed verdict equals an untimed in-process sweep's verdict for the
// same memo key.
func (s *service) check(lr *loopResult) error {
	stackIdx := map[string]int{}
	for i, st := range s.stacks {
		stackIdx[st.Name()] = i
	}
	// Inline tests are swept as the server received them: parsed from
	// their sources, grouped by the stacks their requests selected.
	byCombo := map[[2]string][]*litmus.Test{}
	for _, x := range lr.sent {
		q := s.reqs[x.req]
		if x.records != q.jobs || x.summary.Done != q.jobs || x.summary.Total != q.jobs {
			return mismatch("request %d: %d records, summary %d/%d, want %d", x.req, x.records, x.summary.Done, x.summary.Total, q.jobs)
		}
		if len(q.body.Litmus) > 0 {
			tests, err := corpus.ParseStrings(q.body.Litmus)
			if err != nil {
				return err
			}
			combo := [2]string{q.body.ISA, q.body.Variant}
			byCombo[combo] = append(byCombo[combo], tests...)
			continue
		}
		if err := s.checkFamily(q, x.summary, stackIdx); err != nil {
			return fmt.Errorf("request %d: %w", x.req, err)
		}
	}

	want := map[string]verdict{}
	paperTests := make([]*litmus.Test, s.paper.n)
	for i := range paperTests {
		paperTests[i] = s.paper.test(i)
	}
	if err := referenceSweep(want, paperTests, s.stacks, s.workers); err != nil {
		return err
	}
	for combo, tests := range byCombo {
		stacks, err := core.SelectStacks(combo[0], combo[1])
		if err != nil {
			return err
		}
		if err := referenceSweep(want, tests, stacks, s.workers); err != nil {
			return err
		}
	}
	for k, got := range lr.seen {
		w, ok := want[k]
		if !ok {
			return mismatch("streamed key %s matches no swept job", k)
		}
		if got != w.String() {
			return mismatch("key %s streamed %s, in-process sweep %s", k, got, w)
		}
	}
	return nil
}

// referenceSweep sweeps tests × stacks on a fresh engine and records
// every job's verdict under its memo key.
func referenceSweep(into map[string]verdict, tests []*litmus.Test, stacks []core.Stack, workers int) error {
	results, err := core.NewEngine().Sweep(tests, stacks, workers)
	if err != nil {
		return err
	}
	for _, sr := range results {
		for _, r := range sr.Results {
			into[core.JobKeyBackend(r.Test, sr.Stack, core.BackendUHB)] = verdictOf(r)
		}
	}
	return nil
}

// checkFamily compares a family request's summary tallies, one per
// selected stack, with the paper reference's rows for that family.
func (s *service) checkFamily(q svcRequest, sum *client.Summary, stackIdx map[string]int) error {
	family := q.body.Family
	shape := litmus.ShapeByName(family)
	k := 0
	for k < len(s.paper.shapes) && s.paper.shapes[k] != shape {
		k++
	}
	if k == len(s.paper.shapes) {
		return fmt.Errorf("family %q is not in the paper suite", family)
	}
	lo, hi := s.paper.starts[k], s.paper.starts[k]+variants(shape)
	if len(sum.Stacks)*(hi-lo) != q.jobs {
		return mismatch("%s: summary covers %d stacks of %d tests for %d jobs", family, len(sum.Stacks), hi-lo, q.jobs)
	}
	for _, st := range sum.Stacks {
		si, ok := stackIdx[st.Stack]
		if !ok {
			return mismatch("summary names unknown stack %s", st.Stack)
		}
		var want api.TallyJSON
		for i := lo; i < hi; i++ {
			v := s.ref.at(i, si)
			want.Total++
			switch v.v {
			case core.Bug:
				want.Bugs++
			case core.OverlyStrict:
				want.Strict++
			default:
				want.Equivalent++
			}
			if v.specifiedBug {
				want.SpecifiedBugs++
			}
		}
		if st.Tally != want || len(st.Families) != 1 || st.Families[0].TallyJSON != want {
			return mismatch("%s %s: summary %+v, reference %+v", family, st.Stack, st.Tally, want)
		}
	}
	return nil
}

// calibrationBlocks is how many blocks of fresh requests the traced
// run sends one at a time to split the loop's CPU by layer.
const calibrationBlocks = 2

// trace splits the loop's CPU time by layer. The HTTP loop runs first,
// exactly as measure runs it, and its process CPU time is measured.
// The stages of a request overlap in the loop — the server encodes
// while the farm sweeps, the client decodes while the server writes —
// so their wall times do not add up to its latency; their CPU times do
// add up to the CPU the request costs. The split therefore comes from
// calibrationBlocks blocks of further requests, sent one at a time over
// HTTP with the process CPU of each measured, each immediately replayed
// in-process on a fresh engine primed like the server: resolving the
// selectors, SweepStreamBackend, NDJSON encoding of the verdict records
// and the client's decoding of them, each a span charged the CPU it
// used. Measured back to back, the two sides see the same machine, so
// their ratio holds however the machine's speed drifts. Each layer gets
// its share of the calibration requests' CPU, applied to the loop's
// CPU; http is the rest (net/http on both ends, loopback TCP, the
// handler's bookkeeping). The capacity is the loop's wall time ×
// GOMAXPROCS, and CPU the loop left idle is unattributed. An untraced
// replay on a third engine runs beside the traced one, each going first
// on alternate requests, for the overhead ratio.
func (s *service) trace(budget time.Duration, spansPath string) (*outcome, error) {
	p, err := newProbe(s.workers)
	if err != nil {
		return nil, err
	}
	defer p.close()
	lr, err := s.loop(budget, p)
	if err != nil {
		return &outcome{attempted: len(lr.sent) + 1, failed: 1}, err
	}
	if err := s.check(lr); err != nil {
		return nil, err
	}
	from, to := len(lr.sent), len(lr.sent)+calibrationBlocks*blockSize
	if to > len(s.reqs) {
		return nil, fmt.Errorf("service: %d requests generated, the traced run needs %d", len(s.reqs), to)
	}
	plain, err := s.newReplayer(false)
	if err != nil {
		return nil, err
	}
	traced, err := s.newReplayer(true)
	if err != nil {
		return nil, err
	}
	cl, tr := s.newClient()
	defer tr.CloseIdleConnections()
	cal := &loopResult{seen: map[string]string{}}
	var httpCPU time.Duration
	for i := from; i < to; i++ {
		c0 := cpuTime()
		x, err := s.send(cl, i, 0, cal.seen)
		httpCPU += cpuTime() - c0
		if err != nil {
			return nil, err
		}
		cal.sent = append(cal.sent, x)
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		if err := first.replay(s.reqs[i]); err != nil {
			return nil, err
		}
		if err := second.replay(s.reqs[i]); err != nil {
			return nil, err
		}
	}
	if err := s.check(cal); err != nil {
		return nil, err
	}

	var replayed time.Duration
	for _, d := range traced.cpu {
		replayed += d
	}
	if replayed > httpCPU+httpCPU/100 {
		return nil, fmt.Errorf("trace: replayed layers used %.3fs of CPU, the HTTP requests they replay %.3fs", replayed.Seconds(), httpCPU.Seconds())
	}
	scale := lr.cpu.Seconds() / httpCPU.Seconds()
	bud := layerBudget{capacity: int64(lr.wall) * int64(s.workers)}
	for l, d := range traced.cpu {
		bud.self[l] = int64(float64(d) * scale)
		bud.calls[l] = traced.calls[l]
	}
	bud.self[layerHTTP] = int64(float64(httpCPU-replayed) * scale)
	bud.calls[layerHTTP] = len(cal.sent)
	if err := bud.balanced(); err != nil {
		return nil, err
	}

	epoch := lr.sent[0].start
	for _, x := range lr.sent {
		if x.start.Before(epoch) {
			epoch = x.start
		}
	}
	trees := make([][]span, 0, len(lr.sent)+len(traced.trees))
	for _, x := range lr.sent {
		start := int64(x.start.Sub(epoch))
		trees = append(trees, []span{{layer: layerHTTP, parent: -1, start: start, end: start + int64(x.latency)}})
	}
	if err := writeSpans(spansPath, append(trees, traced.trees...)); err != nil {
		return nil, err
	}

	n := float64(len(cal.sent))
	executed, hits, misses := traced.engineCounts()
	lm := layerMetrics(&bud, counts{}, lr.wall, len(cal.sent))
	lm["farm.executed"] = float64(executed) / n
	lm["farm.memo.hits"] = float64(hits) / n
	lm["farm.memo.misses"] = float64(misses) / n
	lm["farm.memo.hit_ratio"] = ratio(int(hits), int(hits+misses))
	lm["server.ndjson.bytes"] = float64(traced.bytes) / n
	lm["trace.overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()
	return &outcome{
		attempted: len(lr.sent) + len(cal.sent),
		metrics:   lm,
		meta: map[string]any{
			"requests": len(lr.sent), "calibration_requests": len(cal.sent),
			"loop_cpu_s": lr.cpu.Seconds(), "calibration_cpu_s": httpCPU.Seconds(), "replay_cpu_s": replayed.Seconds(),
			"spans": spansPath,
		},
	}, nil
}

// replayer re-runs requests in-process on its own engine, primed like
// the server, and accumulates what it measured.
type replayer struct {
	s      *service
	eng    *core.Engine
	traced bool
	start  time.Time
	memo0  farm.CacheStats
	execs0 uint64
	evs    []core.Progress
	buf    bytes.Buffer

	wall  time.Duration
	cpu   [numLayers]time.Duration // traced only
	calls [numLayers]int           // traced only
	trees [][]span                 // traced only: per request, a job root over its stages
	bytes int64                    // NDJSON bytes encoded
}

func (s *service) newReplayer(traced bool) (*replayer, error) {
	srv, err := primedServer(s.paper, s.stacks, s.workers)
	if err != nil {
		return nil, err
	}
	r := &replayer{s: s, eng: srv.Engine(), traced: traced, start: time.Now()}
	r.memo0, _ = r.eng.MemoStats()
	r.execs0 = r.eng.Executions()
	return r, nil
}

// engineCounts are the engine counters the replays so far moved.
func (r *replayer) engineCounts() (executed, hits, misses uint64) {
	m, _ := r.eng.MemoStats()
	return r.eng.Executions() - r.execs0, m.Hits - r.memo0.Hits, m.Misses - r.memo0.Misses
}

// replay re-runs one request. A traced replayer records every stage as
// a span under one job root and charges it its process CPU time.
func (r *replayer) replay(q svcRequest) error {
	t0 := time.Now()
	defer func() { r.wall += time.Since(t0) }()
	var rec *recorder
	root := int32(-1)
	if r.traced {
		rec = &recorder{epoch: r.start}
		root = rec.begin(layerJob, -1)
		defer func() {
			rec.end(root)
			r.trees = append(r.trees, rec.spans)
		}()
	}
	stage := func(l layer, f func() error) error {
		if rec == nil {
			return f()
		}
		i := rec.begin(l, root)
		c0 := cpuTime()
		err := f()
		r.cpu[l] += cpuTime() - c0
		r.calls[l]++
		rec.end(i)
		return err
	}

	var tests []*litmus.Test
	var stacks []core.Stack
	err := stage(layerResolve, func() error {
		var err error
		if q.body.Family != "" {
			tests = litmus.ShapeByName(q.body.Family).Generate()
		} else if tests, err = corpus.ParseStrings(q.body.Litmus); err != nil {
			return err
		}
		stacks, err = core.SelectStacks(q.body.ISA, q.body.Variant)
		return err
	})
	if err != nil {
		return err
	}

	r.evs = r.evs[:0]
	err = stage(layerSweep, func() error {
		events := make(chan core.Progress, 256)
		done := make(chan struct{})
		go func() {
			for ev := range events {
				r.evs = append(r.evs, ev)
			}
			close(done)
		}()
		_, err := r.eng.SweepStreamBackend(context.Background(), tests, stacks, r.s.workers, core.BackendUHB, events)
		<-done
		return err
	})
	if err != nil {
		return err
	}

	r.buf.Reset()
	err = stage(layerNDJSON, func() error {
		enc := json.NewEncoder(&r.buf)
		for _, ev := range r.evs {
			err := enc.Encode(api.VerdictRecord{
				Type: "verdict", Trace: "0123456789abcdef", Done: ev.Done, Total: ev.Total,
				Test: ev.Test, Stack: ev.Stack, Verdict: ev.Verdict.String(), Key: ev.Key,
				Cached: ev.Cached, SpecifiedBug: ev.SpecifiedBug,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.bytes += int64(r.buf.Len())

	// Decode as client.Verify does: a type probe, then the full record.
	return stage(layerDecode, func() error {
		data := r.buf.Bytes()
		for len(data) > 0 {
			end := bytes.IndexByte(data, '\n') + 1
			line := data[:end]
			data = data[end:]
			var probe struct {
				Type string `json:"type"`
			}
			var v api.VerdictRecord
			if err := json.Unmarshal(line, &probe); err != nil {
				return err
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return err
			}
		}
		return nil
	})
}
