package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"time"

	"tricheck/internal/core"
	"tricheck/internal/farm"
	"tricheck/internal/litmus"
	"tricheck/internal/synth"
)

// minReps is the fewest timed repetitions a batch run makes, however
// short its time budget, so that a median exists.
const minReps = 3

// batch is a sweep workload: tests × stacks on one backend, every
// timed rep on a fresh core.Engine so no rep reuses another's caches.
type batch struct {
	tests   []*litmus.Test
	pos     []int // catalog position of tests[k], the reference key
	stacks  []core.Stack
	backend core.Backend
	ref     *reference
	// extra is the workload's own assertion on a rep's results.
	extra   func([]*core.SuiteResult) error
	workers int
}

// newBatch instantiates the tests at the given catalog positions and
// fingerprints them, so lazy fingerprinting lands in set-up rather
// than in the first timed rep.
func newBatch(c *catalog, pos []int, stacks []core.Stack, backend core.Backend, ref *reference, workers int) *batch {
	b := &batch{pos: pos, stacks: stacks, backend: backend, ref: ref, workers: workers}
	for _, i := range pos {
		t := c.test(i)
		t.Fingerprint()
		b.tests = append(b.tests, t)
	}
	return b
}

func (b *batch) jobs() int { return len(b.tests) * len(b.stacks) }

// sweep runs one rep on a fresh engine.
func (b *batch) sweep() ([]*core.SuiteResult, error) {
	return core.NewEngine().SweepStreamBackend(context.Background(), b.tests, b.stacks, b.workers, b.backend, nil)
}

func (b *batch) check(results []*core.SuiteResult) error {
	if err := b.ref.check(b.pos, results); err != nil {
		return err
	}
	if b.extra != nil {
		return b.extra(results)
	}
	return nil
}

func (b *batch) close() {}

// measure runs one untimed warm-up rep, then timed reps until the time
// budget is spent, checking every rep's verdicts between reps. A probe
// runs on either side of every rep and collects the heap, so every rep
// starts from a collected heap, as a sweep in a fresh tricheck process
// does, and pays for no garbage of the one before it.
func (b *batch) measure(budget time.Duration, p *probe) (*outcome, error) {
	res, err := b.sweep()
	if err != nil {
		return nil, err
	}
	if err := b.check(res); err != nil {
		return nil, err
	}
	res = nil
	before := p.run()
	var walls, cpus, rawWalls, rawCPUs, probes []float64
	start := time.Now()
	for len(walls) < minReps || time.Since(start) < budget {
		c0 := cpuTime()
		t0 := time.Now()
		res, err = b.sweep()
		wall := time.Since(t0)
		cpu := cpuTime() - c0
		if err != nil {
			return &outcome{attempted: (len(walls) + 1) * b.jobs(), failed: b.jobs()}, err
		}
		if err := b.check(res); err != nil {
			return nil, err
		}
		res = nil
		after := p.run()
		sc := p.between(before, after)
		walls = append(walls, wall.Seconds()*sc.wall)
		cpus = append(cpus, cpu.Seconds()*sc.cpu)
		rawWalls = append(rawWalls, wall.Seconds())
		rawCPUs = append(rawCPUs, cpu.Seconds())
		probes = append(probes, after.wall.Seconds())
		before = after
	}
	rss := peakRSSMiB() - p.arenaMiB()
	jobs := float64(b.jobs())
	return &outcome{
		attempted: len(walls) * b.jobs(),
		metrics: map[string]float64{
			"jobs_per_s":     jobs / median(walls),
			"cpu_us_per_job": median(cpus) * 1e6 / jobs,
			"req_p50_ms":     median(walls) * 1e3,
			"peak_rss_mb":    rss,
		},
		meta: map[string]any{
			"reps": len(walls), "jobs_per_rep": b.jobs(), "rep_walls_s": rawWalls,
			"raw_jobs_per_s": jobs / median(rawWalls), "raw_cpu_us_per_job": median(rawCPUs) * 1e6 / jobs,
			"probe_wall_s": median(probes), "measured_s": time.Since(start).Seconds(),
		},
	}, nil
}

// trace alternates untraced reps through the engine and traced reps
// through farm.Run and tracedJob, after an untraced warm-up, until the
// time budget is spent; every rep starts from a collected heap, as in
// measure. Every traced verdict must equal the untraced one for the
// same job, and the overhead ratio compares the median traced and
// untraced reps, which alternate so that both see the same machine. The
// spans of the first traced rep are written to spansPath.
func (b *batch) trace(budget time.Duration, spansPath string) (*outcome, error) {
	var want []verdict
	var untraced, traced []float64
	var bud layerBudget
	var n counts
	var executed, stolen int
	var tracedWall time.Duration
	epoch := time.Now()
	for len(traced) < 1 || time.Since(epoch) < budget {
		runtime.GC()
		t0 := time.Now()
		res, err := b.sweep()
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if err := b.check(res); err != nil {
			return nil, err
		}
		if want == nil { // the warm-up
			for _, sr := range res {
				for _, r := range sr.Results {
					want = append(want, verdictOf(r))
				}
			}
			continue
		}
		untraced = append(untraced, wall.Seconds())

		runtime.GC()
		rep, err := b.tracedRep(epoch)
		if err != nil {
			return nil, err
		}
		for j, v := range rep.got {
			if v != want[j] {
				si, ti := j/len(b.tests), j%len(b.tests)
				return nil, mismatch("traced %s on %s: %s, untraced %s", b.tests[ti].Name, b.stacks[si].Name(), v, want[j])
			}
		}
		bud.addRun(rep.trees, rep.wall, rep.farmWall, rep.stats.Workers)
		n.add(rep.counts)
		executed += rep.stats.Executed
		stolen += rep.stats.Stolen
		tracedWall += rep.wall
		traced = append(traced, rep.wall.Seconds())
		if len(traced) == 1 {
			if err := writeSpans(spansPath, rep.trees); err != nil {
				return nil, err
			}
		}
	}
	if err := bud.balanced(); err != nil {
		return nil, err
	}
	reps := len(traced)
	lm := layerMetrics(&bud, n, tracedWall, reps)
	lm["farm.executed"] = float64(executed) / float64(reps)
	lm["farm.stolen"] = float64(stolen) / float64(reps)
	lm["trace.overhead_ratio"] = median(traced) / median(untraced)
	return &outcome{
		attempted: reps * b.jobs(),
		metrics:   lm,
		meta:      map[string]any{"reps": reps, "jobs_per_rep": b.jobs(), "spans": spansPath},
	}, nil
}

// stackKey is the farm key of a traced job: content fingerprints, so the
// traced farm deduplicates exactly the jobs the engine's farm does.
type stackKey struct{ test, stack string }

// tracedRepResult is one traced rep.
type tracedRepResult struct {
	trees    [][]span  // one per job, nil for jobs the farm deduplicated
	got      []verdict // every job's verdict, in the engine's stack-major order
	counts   counts
	stats    farm.Stats
	wall     time.Duration // the whole rep
	farmWall time.Duration // inside farm.Run
}

// tracedRep runs every job once through farm.Run and tracedJob.
func (b *batch) tracedRep(epoch time.Time) (*tracedRepResult, error) {
	start := time.Now()
	hll := make([]hllSlot, len(b.tests))
	rep := &tracedRepResult{trees: make([][]span, b.jobs())}
	cs := make([]counts, b.jobs())
	jobs := make([]farm.Job[stackKey, verdict], 0, b.jobs())
	for _, s := range b.stacks {
		sfp := core.StackFingerprint(s)
		for ti, t := range b.tests {
			idx := len(jobs)
			jobs = append(jobs, farm.Job[stackKey, verdict]{
				Key: stackKey{t.Fingerprint(), sfp},
				Run: func() (verdict, error) {
					rec := recorder{epoch: epoch}
					v, c, err := tracedJob(&rec, t, &hll[ti], s, b.backend)
					rep.trees[idx], cs[idx] = rec.spans, c
					return v, err
				},
			})
		}
	}
	f0 := time.Now()
	got, st, err := farm.Run(jobs, farm.Options[stackKey, verdict]{Workers: b.workers})
	rep.farmWall = time.Since(f0)
	rep.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	rep.got, rep.stats = got, st
	for _, c := range cs {
		rep.counts.add(c)
	}
	return rep, nil
}

// rng is the workload input generator for a seed.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x7472696368656b))
}

// paperSweep is the paper's Figure 15 sweep: the 1,701-test suite in
// seeded order over the 28 RISC-V stacks on the µhb backend.
func paperSweep(seed uint64, workers int) (*batch, error) {
	c := newCatalog(litmus.PaperShapes())
	stacks, err := core.SelectStacks("both", "both")
	if err != nil {
		return nil, err
	}
	ref, err := loadReference("paper-sweep", c, stacks)
	if err != nil {
		return nil, err
	}
	b := newBatch(c, rng(seed).Perm(c.n), stacks, core.BackendUHB, ref, workers)
	b.extra = paperHeadline
	return b, nil
}

// paperHeadline asserts the paper's own counts: 144 specified-outcome
// bugs on Base+A nMM under riscv-curr, 186 on Base.
func paperHeadline(results []*core.SuiteResult) error {
	want := map[string]int{
		"riscv-base+a-intuitive+nMM/riscv-curr": 144,
		"riscv-base-intuitive+nMM/riscv-curr":   186,
	}
	for _, sr := range results {
		if n, ok := want[sr.Stack.Name()]; ok && sr.Tally.SpecifiedBugs != n {
			return mismatch("%s: %d specified bugs, the paper reports %d", sr.Stack.Name(), sr.Tally.SpecifiedBugs, n)
		}
	}
	return nil
}

// synthSize is how many tests a synth-sweep run draws from the corpus.
const synthSize = 12000

// synthCorpus is the ≤6-edge novel-only synthesized corpus of
// `trisynth sweep -max-len 6 -deps -novel-only`.
func synthCorpus() (*catalog, error) {
	res, err := synth.Enumerate(synth.Options{MaxLen: 6, Deps: true})
	if err != nil {
		return nil, err
	}
	novel := synth.NovelOnly(res)
	shapes := make([]*litmus.Shape, len(novel))
	for i, s := range novel {
		shapes[i] = s.Shape
	}
	return newCatalog(shapes), nil
}

// synthSweep draws synthSize tests from the synthesized corpus over the
// 7 Base riscv-curr stacks.
func synthSweep(seed uint64, workers int) (*batch, error) {
	c, err := synthCorpus()
	if err != nil {
		return nil, err
	}
	stacks, err := core.SelectStacks("base", "curr")
	if err != nil {
		return nil, err
	}
	ref, err := loadReference("synth-sweep", c, stacks)
	if err != nil {
		return nil, err
	}
	return newBatch(c, rng(seed).Perm(c.n)[:synthSize], stacks, core.BackendUHB, ref, workers), nil
}

// crosscheckShapes are the families crosscheck sweeps; iriw is left out
// because under backend=both it alone costs about 200 times its µhb
// time.
func crosscheckShapes() []*litmus.Shape {
	return []*litmus.Shape{litmus.MP, litmus.SB, litmus.WRC, litmus.RWC}
}

// crosscheck sweeps mp, sb, wrc and rwc in seeded order over the 7
// Base+A riscv-curr stacks with the operational second opinion on. Base
// runs the same seven µarchitectures, so it would add no operational
// machine, only time.
func crosscheck(seed uint64, workers int) (*batch, error) {
	c := newCatalog(crosscheckShapes())
	stacks, err := core.SelectStacks("base+a", "curr")
	if err != nil {
		return nil, err
	}
	ref, err := loadReference("crosscheck", c, stacks)
	if err != nil {
		return nil, err
	}
	b := newBatch(c, rng(seed).Perm(c.n), stacks, core.BackendBoth, ref, workers)
	b.extra = noDivergence
	return b, nil
}

// noDivergence asserts that µhb and opsim agree on every job.
func noDivergence(results []*core.SuiteResult) error {
	for _, sr := range results {
		if d := sr.Tally.Divergent; d > 0 {
			return mismatch("%s: %d divergences between µhb and opsim", sr.Stack.Name(), d)
		}
	}
	return nil
}
