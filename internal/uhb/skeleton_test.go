package uhb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSkeletonCSRAndDedup(t *testing.T) {
	s := NewSkeleton(4)
	s.AddEdge(0, 1, 7)
	s.AddEdge(0, 1, 9) // duplicate: first reason wins
	s.AddEdge(2, 3, 1)
	s.AddEdge(0, 2, 5)
	s.Freeze()
	if s.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", s.NumEdges())
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(0, 2) || !s.HasEdge(2, 3) {
		t.Fatal("missing edges after freeze")
	}
	if s.HasEdge(1, 0) {
		t.Fatal("phantom edge")
	}
	if r, ok := s.Reason(0, 1); !ok || r != 7 {
		t.Fatalf("Reason(0,1) = %d,%v, want 7,true", r, ok)
	}
	var got [][3]int
	s.ForEachEdge(func(from, to int, reason uint32) {
		got = append(got, [3]int{from, to, int(reason)})
	})
	want := [][3]int{{0, 1, 7}, {0, 2, 5}, {2, 3, 1}}
	if len(got) != len(want) {
		t.Fatalf("ForEachEdge visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachEdge visited %v, want %v", got, want)
		}
	}
}

func TestOverlayCycleAcrossTiers(t *testing.T) {
	// Static chain 0→1→2; the overlay's back edge 2→0 closes the cycle.
	s := NewSkeleton(3)
	s.AddEdge(0, 1, 0)
	s.AddEdge(1, 2, 0)
	s.Freeze()
	o := NewOverlay(s)
	if o.HasCycle() {
		t.Fatal("static chain must be acyclic")
	}
	o.AddEdge(2, 0, 1)
	if !o.HasCycle() {
		t.Fatal("overlay back edge must close the cycle")
	}
	o.Reset(s)
	if o.HasCycle() {
		t.Fatal("reset must drop dynamic edges")
	}
	o.AddEdge(2, 2, 1) // self-loop
	if !o.HasCycle() {
		t.Fatal("dynamic self-loop must be cyclic")
	}
}

// TestOverlayCycleReasons: the provenance variant returns the reason
// codes of the witnessing cycle — both tiers contribute, duplicates are
// preserved, and repeated calls with a reused buffer neither allocate
// nor disagree with HasCycle.
func TestOverlayCycleReasons(t *testing.T) {
	// Static chain 0→1→2 (reasons 10, 11); dynamic back edge 2→0
	// (reason 12) closes the only cycle. Node 3 dangles off the cycle so
	// the DFS has a non-cycle frame below the loop.
	s := NewSkeleton(4)
	s.AddEdge(0, 1, 10)
	s.AddEdge(1, 2, 11)
	s.AddEdge(0, 3, 99)
	s.Freeze()
	o := NewOverlay(s)

	reasons, cyclic := o.HasCycleReasons(nil)
	if cyclic || len(reasons) != 0 {
		t.Fatalf("acyclic graph reported cycle %v", reasons)
	}

	o.AddEdge(2, 0, 12)
	buf := make([]uint32, 0, 8)
	reasons, cyclic = o.HasCycleReasons(buf)
	if !cyclic {
		t.Fatal("cycle missed")
	}
	// The DFS enters the cycle at node 0, so the reasons arrive in edge
	// order around the loop: 0→1, 1→2, then the closing 2→0.
	want := []uint32{10, 11, 12}
	if len(reasons) != len(want) {
		t.Fatalf("cycle reasons = %v, want %v", reasons, want)
	}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("cycle reasons = %v, want %v", reasons, want)
		}
	}

	// Self-loop: the cycle is a single edge; only its reason appears.
	o.Reset(s)
	o.AddEdge(2, 2, 7)
	reasons, cyclic = o.HasCycleReasons(reasons[:0])
	if !cyclic || len(reasons) != 1 || reasons[0] != 7 {
		t.Fatalf("self-loop reasons = %v (cyclic=%v), want [7]", reasons, cyclic)
	}

	// Duplicate reason codes on distinct edges stay a multiset.
	o.Reset(s)
	o.AddEdge(2, 1, 11) // same code as static 1→2
	reasons, cyclic = o.HasCycleReasons(reasons[:0])
	if !cyclic || len(reasons) != 2 || reasons[0] != 11 || reasons[1] != 11 {
		t.Fatalf("duplicate-code cycle reasons = %v (cyclic=%v), want [11 11]", reasons, cyclic)
	}

	// Steady state with a pre-grown buffer is allocation-free, and the
	// provenance path agrees with the plain check.
	o.Reset(s)
	o.AddEdge(2, 0, 12)
	allocs := testing.AllocsPerRun(100, func() {
		r, c := o.HasCycleReasons(reasons[:0])
		if !c || len(r) != 3 {
			t.Fatal("cycle lost under reuse")
		}
		reasons = r
	})
	if allocs != 0 {
		t.Errorf("HasCycleReasons allocates %.1f/op with reused buffer, want 0", allocs)
	}
	if !o.HasCycle() {
		t.Fatal("HasCycle disagrees with HasCycleReasons")
	}
}

// TestQuickOverlayCycleReasonsAgree: on random two-tier graphs the
// provenance check and the plain check always agree, and any reported
// reason multiset is non-empty exactly when a cycle exists.
func TestQuickOverlayCycleReasonsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		s := NewSkeleton(n)
		var dyn [][2]int
		for i := 0; i < 3*n; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.AddEdge(from, to, uint32(i))
			} else {
				dyn = append(dyn, [2]int{from, to})
			}
		}
		s.Freeze()
		o := NewOverlay(s)
		for i, e := range dyn {
			o.AddEdge(e[0], e[1], uint32(1000+i))
		}
		reasons, cyclic := o.HasCycleReasons(nil)
		return cyclic == o.HasCycle() && (len(reasons) > 0) == cyclic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOverlayMatchesGraph: splitting a random edge set arbitrarily
// into static and dynamic tiers never changes acyclicity. The reference
// is Kahn over a one-tier skeleton of the union, an algorithm the DFS
// under test does not share.
func TestQuickOverlayMatchesGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		union := NewSkeleton(n)
		s := NewSkeleton(n)
		var dyn [][2]int
		for i := 0; i < 3*n; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			union.AddEdge(from, to, 0)
			if rng.Intn(2) == 0 {
				s.AddEdge(from, to, 0)
			} else {
				dyn = append(dyn, [2]int{from, to})
			}
		}
		union.Freeze()
		s.Freeze()
		o := NewOverlay(s)
		for _, e := range dyn {
			o.AddEdge(e[0], e[1], 0)
		}
		return o.HasCycle() == (union.TopoOrder() == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayReuseAcrossSkeletons: an overlay rebinds cleanly to a
// skeleton of a different size.
func TestOverlayReuseAcrossSkeletons(t *testing.T) {
	small := NewSkeleton(2)
	small.AddEdge(0, 1, 0)
	small.Freeze()
	big := NewSkeleton(50)
	for i := 0; i < 49; i++ {
		big.AddEdge(i, i+1, 0)
	}
	big.Freeze()
	o := NewOverlay(small)
	o.AddEdge(1, 0, 0)
	if !o.HasCycle() {
		t.Fatal("small cycle missed")
	}
	o.Reset(big)
	if o.HasCycle() {
		t.Fatal("stale dynamic edges after rebind")
	}
	o.AddEdge(49, 0, 0)
	if !o.HasCycle() {
		t.Fatal("big cycle missed")
	}
}

// BenchmarkOverlayCheck measures the per-execution cost of one reused
// overlay: reset, add a handful of dynamic edges, run the cycle check.
// This is the inner loop of the µspec verdict path and must not allocate.
func BenchmarkOverlayCheck(b *testing.B) {
	const n = 120
	s := NewSkeleton(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from < to {
			s.AddEdge(from, to, 0)
		}
	}
	s.Freeze()
	o := NewOverlay(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Reset(s)
		for j := 0; j < 30; j++ {
			from, to := (j*7)%n, (j*13+1)%n
			if from < to {
				o.AddEdge(from, to, 0)
			}
		}
		if o.HasCycle() {
			b.Fatal("unexpected cycle")
		}
	}
}

// frozen returns a frozen skeleton over n nodes holding edges, each
// with its index as reason code.
func frozen(n int, edges ...[2]int) *Skeleton {
	s := NewSkeleton(n)
	for i, e := range edges {
		s.AddEdge(e[0], e[1], uint32(i))
	}
	s.Freeze()
	return s
}

// findCycle runs the overlay DFS over s alone.
func findCycle(s *Skeleton) []int { return NewOverlay(s).FindCycle() }

func TestAcyclicSimple(t *testing.T) {
	o := NewOverlay(frozen(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}))
	if o.HasCycle() || o.FindCycle() != nil {
		t.Fatal("chain should be acyclic")
	}
	o.AddEdge(3, 0, 9)
	if !o.HasCycle() || o.FindCycle() == nil {
		t.Fatal("closed chain should be cyclic")
	}
}

func TestSelfLoop(t *testing.T) {
	if c := findCycle(frozen(2, [2]int{1, 1})); len(c) != 1 || c[0] != 1 {
		t.Fatalf("self-loop cycle = %v, want [1]", c)
	}
}

// TestFindCycleIsRealCycle: the reported cycle is made of real edges and
// ends at the node its closing edge re-enters — the DFS enters 1 first,
// so the cycle 1→2→4→5→1 is reported as [2 4 5 1].
func TestFindCycleIsRealCycle(t *testing.T) {
	s := frozen(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 4}, [2]int{4, 5}, [2]int{5, 1}, [2]int{3, 0})
	cycle := findCycle(s)
	want := []int{2, 4, 5, 1}
	if len(cycle) != len(want) {
		t.Fatalf("cycle = %v, want %v", cycle, want)
	}
	for i, v := range cycle {
		if v != want[i] || !s.HasEdge(v, cycle[(i+1)%len(cycle)]) {
			t.Fatalf("cycle = %v, want %v", cycle, want)
		}
	}
}

// TestDuplicateEdgesKeepFirstReason: Freeze keeps the reason of the
// first AddEdge of a (from, to) pair wherever its duplicates fall among
// the node's other edges — the stable order diagnostics rely on to name
// each edge by the first axiom that demanded it.
func TestDuplicateEdgesKeepFirstReason(t *testing.T) {
	s := NewSkeleton(4)
	s.AddEdge(0, 3, 1)
	s.AddEdge(0, 1, 2)
	s.AddEdge(0, 2, 3)
	s.AddEdge(0, 1, 4)
	s.AddEdge(0, 3, 5)
	s.AddEdge(0, 1, 6)
	s.Freeze()
	if s.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", s.NumEdges())
	}
	for to, want := range map[int]uint32{1: 2, 2: 3, 3: 1} {
		if r, _ := s.Reason(0, to); r != want {
			t.Errorf("Reason(0,%d) = %d, want %d", to, r, want)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	order := frozen(4, [2]int{2, 0}, [2]int{0, 1}, [2]int{1, 3}).TopoOrder()
	if order == nil {
		t.Fatal("acyclic graph must have a topo order")
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[2] < pos[0] && pos[0] < pos[1] && pos[1] < pos[3]) {
		t.Fatalf("order %v not topological", order)
	}
	if frozen(4, [2]int{2, 0}, [2]int{0, 1}, [2]int{1, 3}, [2]int{3, 2}).TopoOrder() != nil {
		t.Fatal("cyclic graph must have no topo order")
	}
}

// randomSplit builds a random graph over 2..2+span nodes with density
// edges per node, split at random between a frozen skeleton and an
// overlay on it. It also returns the overlay's edges.
func randomSplit(rng *rand.Rand, span, density int) (*Skeleton, *Overlay, map[[2]int]bool) {
	n := 2 + rng.Intn(span)
	s := NewSkeleton(n)
	var dyn [][2]int
	for i := 0; i < density*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if rng.Intn(2) == 0 {
			s.AddEdge(from, to, 0)
		} else {
			dyn = append(dyn, [2]int{from, to})
		}
	}
	s.Freeze()
	o := NewOverlay(s)
	set := map[[2]int]bool{}
	for _, e := range dyn {
		o.AddEdge(e[0], e[1], 1)
		set[e] = true
	}
	return s, o, set
}

// TestQuickAcyclicityMatchesTopo cross-checks the DFS against Kahn on
// random one-tier graphs: exactly one of them must succeed.
func TestQuickAcyclicityMatchesTopo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		s := NewSkeleton(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			s.AddEdge(rng.Intn(n), rng.Intn(n), 0)
		}
		s.Freeze()
		return (findCycle(s) == nil) == (s.TopoOrder() != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEdgeMonotonicity: adding edges can only create cycles, never
// remove them.
func TestQuickEdgeMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, o, _ := randomSplit(rng, 10, 1)
		n := s.NumNodes()
		for i := 0; i < 4*n && !o.HasCycle(); i++ {
			o.AddEdge(rng.Intn(n), rng.Intn(n), 2)
		}
		if !o.HasCycle() {
			return true
		}
		for i := 0; i < n; i++ {
			o.AddEdge(rng.Intn(n), rng.Intn(n), 2)
			if !o.HasCycle() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCycleWitnessValid: any cycle reported across the two tiers
// consists of real edges, and its reason codes come one per edge.
func TestQuickCycleWitnessValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, o, dyn := randomSplit(rng, 14, 3)
		cycle := o.FindCycle()
		reasons, cyclic := o.HasCycleReasons(nil)
		if cycle == nil {
			return !cyclic
		}
		for i, v := range cycle {
			w := cycle[(i+1)%len(cycle)]
			if !s.HasEdge(v, w) && !dyn[[2]int{v, w}] {
				return false
			}
		}
		return len(reasons) == len(cycle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFindCycleInsertionOrderIndependent: over a frozen skeleton the
// reported cycle is a pure function of the edge set — permuting edge
// insertion order cannot change it. This is what keeps cycle
// explanations deterministic even when a builder discovers ordering
// obligations in nondeterministic (map) order.
func TestFindCycleInsertionOrderIndependent(t *testing.T) {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 0}, // one cycle
		{2, 3}, {3, 4}, {4, 2}, // another cycle
		{5, 0}, {1, 5}, // extra structure
	}
	want := findCycle(frozen(6, edges...))
	if want == nil {
		t.Fatal("graph must be cyclic")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := make([][2]int, len(edges))
		for i, j := range rng.Perm(len(edges)) {
			perm[i] = edges[j]
		}
		got := findCycle(frozen(6, perm...))
		if len(got) != len(want) {
			t.Fatalf("insertion order changed cycle: got %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("insertion order changed cycle: got %v want %v", got, want)
			}
		}
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	for name, add := range map[string]func(){
		"skeleton": func() { NewSkeleton(1).AddEdge(0, 5, 0) },
		"overlay":  func() { NewOverlay(frozen(1)).AddEdge(5, 0, 0) },
		"frozen":   func() { frozen(2).AddEdge(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			add()
		}()
	}
}

func BenchmarkFindCycleDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewSkeleton(60)
	for i := 0; i < 400; i++ {
		from, to := rng.Intn(60), rng.Intn(60)
		if from < to { // keep acyclic: worst case for the search
			s.AddEdge(from, to, 0)
		}
	}
	s.Freeze()
	o := NewOverlay(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.HasCycle() {
			b.Fatal("unexpected cycle")
		}
	}
}
