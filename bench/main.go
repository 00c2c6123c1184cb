// Command bench is TriCheck's benchmark: four seeded workloads that
// report end-to-end metrics, check every verdict against a committed
// reference, and, in a separate traced run, split the time by layer.
//
//	go run . -workload paper-sweep -seed 1 -seconds 15 -trace 0
//	go run . -compare A.ndjson B.ndjson
//
// A run prints a provenance line {"meta": ...} and, last, one result
// line {"correct", "attempted", "failed", "metrics"}; it exits 1 when a
// verdict or tally differs from its reference. See README.md for the
// workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runner is a workload's inputs, built by its set-up, ready to run.
type runner interface {
	// measure runs untraced for the time budget and reports the
	// end-to-end metrics, each timing restated at the reference speed by
	// the probe runs around it.
	measure(budget time.Duration, p *probe) (*outcome, error)
	// trace runs the same inputs traced for the time budget, reports the
	// per-layer metrics and writes the spans of one traced rep.
	trace(budget time.Duration, spansPath string) (*outcome, error)
	close()
}

// workloads are the benchmark's workloads; README.md says why each.
var workloads = []struct {
	name, why string
	setup     func(seed uint64, workers int) (runner, error)
}{
	{"paper-sweep", "the paper's Figure 15 sweep, 1,701 tests x 28 stacks on uhb: the uhb layers do nearly all the work",
		func(seed uint64, w int) (runner, error) { return paperSweep(seed, w) }},
	{"synth-sweep", "12,000 synthesized 6-edge tests x 7 stacks: longer cycles and distinct tests stress C11 and the cycle check",
		func(seed uint64, w int) (runner, error) { return synthSweep(seed, w) }},
	{"crosscheck", "mp, sb, wrc, rwc x 7 Base+A curr stacks under backend=both: the only workload that runs opsim",
		func(seed uint64, w int) (runner, error) { return crosscheck(seed, w) }},
	{"service-stream", "tricheckd over loopback, nproc closed-loop clients, memo-hit family requests and cold inline tests",
		func(seed uint64, w int) (runner, error) { return newService(seed, w) }},
}

// A run builds its inputs at least setupRuns times and until setupTime
// is spent, so that the median of a set-up of a few milliseconds is
// steady; setup_s is that median and the last build is the one measured.
// Every build starts from a collected heap, as in a fresh process. The
// builds come in rounds of at least setupRound with a probe run between
// rounds, and each is restated at the reference speed by the probes
// around its round.
const (
	setupRuns  = 3
	setupTime  = time.Second
	setupRound = 100 * time.Millisecond
)

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A B")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A B")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace is 0 or 1, not %d", *trace)
	}
	meta, res, err := run(*workload, *seed, *seconds, *trace == 1)
	if meta == nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if e := enc.Encode(map[string]any{"meta": meta}); e != nil {
		fatalf("%v", e)
	}
	if e := enc.Encode(res); e != nil {
		fatalf("%v", e)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets up a workload setupRuns times, then measures it, or traces
// it. A nil meta means set-up failed and there is nothing to print; an
// error with a meta is a failed or incorrect run, reported as such.
func run(name string, seed uint64, seconds int, traced bool) (map[string]any, *result, error) {
	var setup func(uint64, int) (runner, error)
	for _, w := range workloads {
		if w.name == name {
			setup = w.setup
		}
	}
	if setup == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	workers := runtime.GOMAXPROCS(0)
	p, err := newProbe(workers)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()

	var r runner
	var setups, raw []float64
	before := p.run()
	for spent := time.Duration(0); len(setups) < setupRuns || spent < setupTime; {
		var round []time.Duration
		for inRound := time.Duration(0); inRound < setupRound; {
			if r != nil {
				r.close()
			}
			runtime.GC()
			t0 := time.Now()
			if r, err = setup(seed, workers); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
			}
			d := time.Since(t0)
			inRound += d
			round = append(round, d)
		}
		after := p.run()
		sc := p.between(before, after)
		for _, d := range round {
			spent += d
			setups = append(setups, d.Seconds()*sc.wall)
			raw = append(raw, d.Seconds())
		}
		before = after
	}
	defer r.close()

	budget := time.Duration(seconds) * time.Second
	var out *outcome
	defs := endToEnd
	if traced {
		defs = perLayer
		out, err = r.trace(budget, filepath.Join(".bench_build", "spans", name+".csv.gz"))
	} else if out, err = r.measure(budget, p); err == nil {
		out.metrics["setup_s"] = median(setups)
	}
	if out == nil {
		out = &outcome{attempted: 1}
	}
	meta := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": workers, "go": runtime.Version(),
		"commit": buildCommit, "setup_runs": len(setups), "raw_setup_s": median(raw),
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	res := &result{Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metric{}}
	if err != nil {
		meta["error"] = err.Error()
		return meta, res, err
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return meta, res, fmt.Errorf("%s did not measure %s", name, d.Name)
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
	}
	res.Correct = true
	return meta, res, nil
}

// buildCommit is the revision the binary was built from; run.sh sets it.
var buildCommit = "unknown"
