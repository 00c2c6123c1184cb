package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On the shared 2-vCPU guest this benchmark was
// defined on, the same sweep ran 25% slower for a minute while the host
// stole time, and its CPU time per job moved by 20% over five calm
// minutes as neighbours came and went. Medians within a run cannot
// remove drift that outlasts the run. So every timing is taken between
// two runs of a probe, a fixed kernel that calls no TriCheck code, and is
// restated at the reference speed: scaled by probeRef over the mean of
// the two probes. The meta line carries the raw timings beside the
// scaled ones.
//
// The kernel does the kinds of work TriCheck does — small random graphs,
// a depth-first search for a cycle, a hash table of edges, a bit matrix —
// with its nodes scattered over an arena larger than the caches, so that
// it waits on memory as the verifier and the collector do. Two kernels
// were measured and rejected. One that stayed in its own cache lines
// missed the slow periods in which the neighbours took the memory system
// rather than the CPU. One that allocated its graphs on the heap ran a
// third slower in the service's process, with its large heap, than in
// the sweeps': its cost depended on the program it measured. This one
// allocates nothing, and runs between two collections of the heap, so
// that it finds no collection under way. Its arenas are mapped outside
// the Go heap: on the heap they would raise the collector's goal by
// their size, and the measured program would be collected less often.

// probeRef is the probe's wall time on the reference host, the 2-vCPU
// Intel Xeon KVM guest of README.md's tables, when its neighbours are
// quiet. Scaled timings read what that host would measure then.
const probeRef = 100 * time.Millisecond

// A probe run builds and searches probeChunks chunks of probeChunk
// random graphs per worker. The workers take chunks from a shared
// counter, as the farm's workers take jobs, so they finish together and
// the run's wall time measures both CPUs rather than the slower one.
const (
	probeChunk  = 100
	probeChunks = 900
	probeArena  = 1 << 20 // nodes in each worker's arena, 20 MiB
	probeTable  = 1 << 12 // slots in each worker's hash table
	probeMaxN   = 40      // nodes in a graph, at most

	arenaBytes = probeArena * unsafe.Sizeof(probeNode{})
	probeBytes = arenaBytes + probeTable*unsafe.Sizeof(probeSlot{}) // mapped per worker
)

// probeTime is one probe run's wall time and the process CPU time it used.
type probeTime struct{ wall, cpu time.Duration }

// probe runs the kernel on as many goroutines as the benchmark has
// workers, so it sees the CPUs the measured work sees.
type probe struct {
	ws []*probeWorker
}

// probeWorker is one goroutine's arena and scratch space. Colours and
// table slots carry the generation of the graph that wrote them, so
// nothing is cleared between graphs.
type probeWorker struct {
	mem   []byte // the mapping arena and table live in
	arena []probeNode
	table []probeSlot
	ids   [probeMaxN]int32
	stack [probeMaxN]int32
	next  [probeMaxN]uint8 // per node on the stack, its next edge to try
	bits  [probeMaxN]uint64
	gen   uint32
	rng   uint64
	sink  int
}

type probeNode struct {
	out [3]int32 // arena indices
	gen uint32   // the graph that last coloured this node
	col uint8
}

type probeSlot struct {
	key   uint64
	gen   uint32
	count uint32
}

// newProbe maps the workers' arenas and runs the probe once, which
// touches every page of them. Close the probe when done.
func newProbe(workers int) (*probe, error) {
	p := &probe{}
	for range workers {
		mem, err := syscall.Mmap(-1, 0, int(probeBytes), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("mapping the probe's arena: %w", err)
		}
		p.ws = append(p.ws, &probeWorker{
			mem:   mem,
			arena: unsafe.Slice((*probeNode)(unsafe.Pointer(&mem[0])), probeArena),
			table: unsafe.Slice((*probeSlot)(unsafe.Pointer(&mem[arenaBytes])), probeTable),
		})
	}
	p.run()
	return p, nil
}

// close unmaps the arenas.
func (p *probe) close() {
	for _, w := range p.ws {
		syscall.Munmap(w.mem) // the mapping is ours; unmapping it cannot fail
	}
	p.ws = nil
}

// arenaMiB is the memory the probe's arenas hold resident: peak_rss_mb
// leaves it out.
func (p *probe) arenaMiB() float64 {
	return float64(uintptr(len(p.ws))*probeBytes) / (1 << 20)
}

// run times one probe run, between two collections of the heap.
func (p *probe) run() probeTime {
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	var next atomic.Int64
	chunks := int64(len(p.ws) * probeChunks)
	var wg sync.WaitGroup
	for _, w := range p.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1) - 1; c < chunks; c = next.Add(1) - 1 {
				w.chunk(uint64(c))
			}
		}()
	}
	wg.Wait()
	pt := probeTime{time.Since(t0), cpuTime() - c0}
	runtime.GC()
	return pt
}

// chunk builds probeChunk random graphs from the seed. For each it picks
// nodes scattered over the arena, wires each to three random others,
// looks for a cycle by depth-first search, counts the edges in the hash
// table and sets them in a bit matrix. The work depends on the seed
// alone, not on which worker does it.
func (w *probeWorker) chunk(seed uint64) {
	w.rng = seed*0x9e3779b97f4a7c15 + 1
	for range probeChunk {
		w.gen++
		n := probeMaxN/2 + int(w.rand()%(probeMaxN/2))
		for i := range n {
			w.ids[i] = int32(w.rand() % probeArena)
		}
		for i := range n {
			nd := &w.arena[w.ids[i]]
			for k := range nd.out {
				nd.out[k] = w.ids[w.rand()%uint64(n)]
			}
		}
		if w.cyclic(n) {
			w.sink++
		}
		for i := range n {
			w.bits[i] = 0
			for _, u := range w.arena[w.ids[i]].out {
				h := uint64(w.ids[i])<<32 | uint64(u)
				w.count(h)
				w.bits[i] |= 1 << (uint64(u) % 64)
			}
		}
		w.sink += int(w.bits[0] & 1)
	}
}

// cyclic reports whether the graph on w.ids[:n] has a cycle: an
// iterative three-colour depth-first search.
func (w *probeWorker) cyclic(n int) bool {
	colour := func(v int32) uint8 {
		if nd := &w.arena[v]; nd.gen == w.gen {
			return nd.col
		}
		return 0
	}
	paint := func(v int32, c uint8) { w.arena[v].gen, w.arena[v].col = w.gen, c }
	for _, root := range w.ids[:n] {
		if colour(root) != 0 {
			continue
		}
		top := 0
		w.stack[0], w.next[0] = root, 0
		paint(root, 1)
		for top >= 0 {
			v := w.stack[top]
			if int(w.next[top]) == len(w.arena[v].out) {
				paint(v, 2)
				top--
				continue
			}
			u := w.arena[v].out[w.next[top]]
			w.next[top]++
			switch colour(u) {
			case 1:
				return true
			case 0:
				top++
				w.stack[top], w.next[top] = u, 0
				paint(u, 1)
			}
		}
	}
	return false
}

// count adds one to key's slot in the open-addressing hash table.
func (w *probeWorker) count(key uint64) {
	for i := key * 0x9e3779b97f4a7c15 >> 52; ; i = (i + 1) % probeTable {
		sl := &w.table[i]
		if sl.gen != w.gen {
			*sl = probeSlot{key: key, gen: w.gen, count: 1}
			return
		}
		if sl.key == key {
			sl.count++
			return
		}
	}
}

// rand is xorshift64*.
func (w *probeWorker) rand() uint64 {
	w.rng ^= w.rng >> 12
	w.rng ^= w.rng << 25
	w.rng ^= w.rng >> 27
	return w.rng * 0x2545f4914f6cdd1d
}

// scale restates timings taken between two probe runs at the reference
// speed: a wall time times wall, a CPU time times cpu.
type scale struct{ wall, cpu float64 }

// between is the scale of an interval with probe runs before and after
// it. On the reference host the probe keeps every worker busy, so its
// reference CPU time is probeRef on each.
func (p *probe) between(before, after probeTime) scale {
	ref := probeRef.Seconds()
	return scale{
		wall: 2 * ref / (before.wall + after.wall).Seconds(),
		cpu:  2 * ref * float64(len(p.ws)) / (before.cpu + after.cpu).Seconds(),
	}
}
