package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer names one traced layer of the system. Every span is recorded
// by the benchmark around a call into a layer's public functions; the
// program itself is not instrumented.
type layer uint8

const (
	// layerJob is the root span of one farm job thunk. It is not a layer:
	// its self time (verdict comparison, pooling, glue) is unattributed.
	layerJob layer = iota
	layerC11
	layerCompile
	layerSkeleton
	layerEnumerate
	layerCycle
	layerOpsim
	layerResolve
	layerSweep
	layerNDJSON
	layerDecode
	// layerHTTP spans one /v1/verify request from send to summary
	// record. In the service's budget it is the request CPU that no
	// replayed layer accounts for.
	layerHTTP
	// layerFarm is never a span: the farm's self time is its run's
	// capacity (wall × workers) minus the job spans it ran.
	layerFarm
	numLayers
)

var layerNames = [numLayers]string{
	layerJob:       "job",
	layerC11:       "c11",
	layerCompile:   "compile",
	layerSkeleton:  "uspec.skeleton",
	layerEnumerate: "mem.enumerate",
	layerCycle:     "uhb.cycle",
	layerOpsim:     "opsim",
	layerResolve:   "server.resolve",
	layerSweep:     "core.sweep",
	layerNDJSON:    "server.ndjson",
	layerDecode:    "client.decode",
	layerHTTP:      "http",
	layerFarm:      "farm",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. Spans of one job or request form a tree whose
// root has parent -1; parent indexes the same tree.
type span struct {
	layer      layer
	parent     int32
	start, end int64 // nanoseconds since the trace epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder appends the spans of one tree. It belongs to one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent and returns its index.
func (r *recorder) begin(l layer, parent int32) int32 {
	r.spans = append(r.spans, span{layer: l, parent: parent, start: r.now()})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) { r.spans[i].end = r.now() }

// selfTimes returns each span's self time: its duration minus the part
// of its own interval that its direct children cover. Overlapping
// children count once, and a child reaching outside its parent counts
// only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// budget accumulates per-layer self time and call counts over traced
// runs, against their capacity: wall time × workers.
type layerBudget struct {
	self     [numLayers]int64
	calls    [numLayers]int
	capacity int64 // ns
}

// addRun folds one traced run into the budget: trees are its span trees,
// wall its duration with the given number of workers (farm workers or
// clients), and farmWall the part spent inside farm.Run, zero when the
// run used no farm of its own. The farm's self time is its capacity
// minus the job trees it ran.
func (b *layerBudget) addRun(trees [][]span, wall, farmWall time.Duration, workers int) {
	b.capacity += int64(wall) * int64(workers)
	var roots int64
	for _, spans := range trees {
		if len(spans) == 0 {
			continue
		}
		roots += spans[0].dur()
		for i, st := range selfTimes(spans) {
			l := spans[i].layer
			b.self[l] += st
			b.calls[l]++
		}
	}
	if farmWall > 0 {
		b.self[layerFarm] += int64(farmWall)*int64(workers) - roots
		b.calls[layerFarm]++
	}
}

// unattributed is the capacity no layer accounts for: job glue, time
// outside the traced calls, and client gaps between requests.
func (b *layerBudget) unattributed() int64 {
	u := b.capacity
	for l := layer(0); l < numLayers; l++ {
		if l != layerJob {
			u -= b.self[l]
		}
	}
	return u
}

// share is a layer's self time over the capacity.
func (b *layerBudget) share(l layer) float64 {
	if b.capacity == 0 {
		return 0
	}
	return float64(b.self[l]) / float64(b.capacity)
}

// balanced checks that the budget adds up: layer self times plus the
// unattributed rest equal the capacity, which holds by construction, so
// the check is that neither the farm's share nor the rest goes negative
// by more than 1% of the capacity — time claimed twice by overlapping
// spans, or spans escaping their parents.
func (b *layerBudget) balanced() error {
	tol := b.capacity / 100
	if f := b.self[layerFarm]; f < -tol {
		return fmt.Errorf("trace: job spans claim %.3fs more than the farm's capacity", float64(-f)/1e9)
	}
	if u := b.unattributed(); u < -tol {
		return fmt.Errorf("trace: layers claim %.3fs more than the %.3fs traced capacity", float64(-u)/1e9, float64(b.capacity)/1e9)
	}
	return nil
}

// writeSpans writes trees as gzipped CSV, one span a line, replacing
// path. A traced rep of synth-sweep holds about two million spans.
func writeSpans(path string, trees [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level never errs
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "tree,span,parent,layer,start_ns,end_ns")
	for t, spans := range trees {
		for i, s := range spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", t, i, s.parent, s.layer, s.start, s.end)
		}
	}
	err = w.Flush()
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
