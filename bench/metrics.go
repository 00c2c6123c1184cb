package main

import (
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of TriCheck sees, printed by every
// untraced run of every workload. Every timing among them is restated at
// the reference host speed by the probe runs around it (probe.go); the
// meta line has the raw figures. Bound is the share of the parent's
// median by which a metric may worsen before it counts as a regression.
var endToEnd = []metricDef{
	// Building the inputs (suite, synthesis, draw, fingerprints) and, for
	// the service, starting and priming tricheckd: the median of a run's
	// repeated set-ups.
	{"setup_s", "s", "lower", 0.25},
	// (test, stack) verdicts delivered per second of wall time: the
	// median rep's (batch) or block of requests' (service).
	{"jobs_per_s", "1/s", "higher", 0.24},
	// Process user+system CPU per delivered verdict, likewise.
	{"cpu_us_per_job", "us", "lower", 0.24},
	// Median latency of one call, from issue to its complete result: a
	// whole sweep for the batch workloads, one /v1/verify request (sent
	// to summary record) for the service. Tail latency is not gated: a
	// batch run has too few calls for a tail, and on a shared host the
	// service's p99 swings with the host's load (the meta line has it).
	{"req_p50_ms", "ms", "lower", 0.24},
	// Peak resident set of the benchmark process by the end of the timed
	// window (getrusage ru_maxrss, the kernel's VmHWM), less the probe's
	// arenas.
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// reportedLayers are the layers whose share and call count every traced
// run prints; layerJob is glue and layerFarm has no calls to count.
var reportedLayers = []layer{
	layerC11, layerCompile, layerSkeleton, layerEnumerate, layerCycle, layerOpsim,
	layerFarm, layerResolve, layerSweep, layerNDJSON, layerDecode, layerHTTP,
}

// perLayer are the metrics every traced run prints. Layer time is given
// as a share of the traced capacity (wall × workers) rather than in
// seconds, so a layer a workload never enters reads 0 as a ratio, not
// as a time; trace.wall_s converts shares back to seconds.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range reportedLayers {
		out = append(out, metricDef{Name: l.String() + ".share", Unit: "ratio", Better: "lower"})
		if l != layerFarm {
			out = append(out, metricDef{Name: l.String() + ".calls", Unit: "count", Better: "lower"})
		}
	}
	return append(out,
		metricDef{Name: "unattributed.share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "uspec.skeleton.edges", Unit: "count", Better: "lower"},
		metricDef{Name: "mem.enumerate.candidates", Unit: "count", Better: "lower"},
		metricDef{Name: "uhb.cycle.graphs", Unit: "count", Better: "lower"},
		metricDef{Name: "uhb.cycle.graphs_per_candidate", Unit: "ratio", Better: "lower"},
		metricDef{Name: "uhb.cycle.cyclic_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "opsim.states", Unit: "count", Better: "lower"},
		metricDef{Name: "farm.executed", Unit: "count", Better: "lower"},
		metricDef{Name: "farm.stolen", Unit: "count", Better: "lower"},
		metricDef{Name: "farm.memo.hits", Unit: "count", Better: "higher"},
		metricDef{Name: "farm.memo.misses", Unit: "count", Better: "lower"},
		metricDef{Name: "farm.memo.hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "server.ndjson.bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "trace.wall_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}()

// outcome is what one run of a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	meta              map[string]any
}

// layerMetrics renders a traced budget and its work counters, counts
// divided by units — the traced reps of a batch workload, the requests
// of the service — so runs of different lengths compare. The caller
// adds the farm, memo, byte and overhead figures it has.
func layerMetrics(b *layerBudget, n counts, wall time.Duration, units int) map[string]float64 {
	per := func(x int) float64 { return float64(x) / float64(units) }
	m := map[string]float64{}
	for _, l := range reportedLayers {
		m[l.String()+".share"] = b.share(l)
		if l != layerFarm {
			m[l.String()+".calls"] = per(b.calls[l])
		}
	}
	if b.capacity > 0 {
		m["unattributed.share"] = float64(b.unattributed()) / float64(b.capacity)
	}
	m["uspec.skeleton.edges"] = per(n.edges)
	m["mem.enumerate.candidates"] = per(n.candidates)
	m["uhb.cycle.graphs"] = per(n.graphs)
	m["uhb.cycle.graphs_per_candidate"] = ratio(n.graphs, n.candidates)
	m["uhb.cycle.cyclic_ratio"] = ratio(n.cyclic, n.graphs)
	m["opsim.states"] = per(n.states)
	m["trace.wall_s"] = wall.Seconds()
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size so far (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
