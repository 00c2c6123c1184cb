package uhb

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randomDAG builds a random frozen acyclic skeleton over n nodes: edges
// run forward along a random permutation of the nodes, or along node
// order when permute is false, which is how the µspec builder numbers
// them.
func randomDAG(rng *rand.Rand, n int, permute bool) *Skeleton {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if permute {
		order = rng.Perm(n)
	}
	s := NewSkeleton(n)
	for i := 0; i < 2*n; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a < b {
			s.AddEdge(order[a], order[b], uint32(i))
		}
	}
	s.Freeze()
	return s
}

// TestQuickClosureMatchesOverlay: over random acyclic skeletons of 2 to
// 140 nodes and random port subsets, twelve candidates of random dynamic
// edges between ports run through one reused Closure, as an enumeration
// sweep runs them. Attach must take exactly the skeletons of at most 64
// ports whose every edge runs to a higher node; a permuted skeleton has
// edges that run to a lower one. On a taken closure each verdict must
// equal Overlay.HasCycle on the same edges, and on the rest HasCycle
// must be true, leaving the verdict to the overlay. On both, replaying
// the closure's log into an overlay must yield the witnessing cycle of
// an overlay filled directly.
func TestQuickClosureMatchesOverlay(t *testing.T) {
	// taken counts the taken closures' candidates by verdict, acyclic and
	// cyclic; untaken the skeletons Attach refused for more than 64 ports
	// alone and for a backward edge alone.
	var taken, untaken [2]int
	c := &Closure{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(139)
		s := randomDAG(rng, n, rng.Intn(2) == 0)
		nodes := rng.Perm(n)[:1+rng.Intn(n)]
		ports := make([]int32, len(nodes))
		for i, v := range nodes {
			ports[i] = int32(v)
		}
		forward := true
		s.ForEachEdge(func(from, to int, _ uint32) { forward = forward && from < to })
		wide := len(ports) > 64
		take := forward && !wide
		if got := c.Attach(s, ports); got != take {
			t.Logf("seed %d: Attach took %v with %d ports, forward %v", seed, got, len(ports), forward)
			return false
		}
		switch {
		case forward && wide:
			untaken[0]++
		case !forward && !wide:
			untaken[1]++
		}
		direct, replayed := NewOverlay(s), NewOverlay(s)
		for cand := 0; cand < 12; cand++ {
			c.Reset()
			direct.Reset(s)
			for i := rng.Intn(len(ports) + 2); i > 0; i-- {
				from, to := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				c.AddEdge(from, to, uint32(1000+i))
				direct.AddEdge(from, to, uint32(1000+i))
			}
			want := direct.HasCycle()
			if got := c.HasCycle(); take && got != want || !take && !got {
				t.Logf("seed %d candidate %d (taken %v): closure says cyclic=%v, overlay %v", seed, cand, take, got, want)
				return false
			}
			if take && want {
				taken[1]++
			} else if take {
				taken[0]++
			}
			replayed.Reset(s)
			c.ForEachEdge(replayed.AddEdge)
			a, _ := direct.HasCycleReasons(nil)
			b, _ := replayed.HasCycleReasons(nil)
			if !reflect.DeepEqual(a, b) {
				t.Logf("seed %d candidate %d: replayed cycle %v, direct %v", seed, cand, b, a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	t.Logf("taken closures' [acyclic, cyclic] candidates: %v; skeletons untaken for [ports, a backward edge]: %v", taken, untaken)
	if taken[0] == 0 || taken[1] == 0 || untaken[0] == 0 || untaken[1] == 0 {
		t.Fatalf("taken [acyclic, cyclic] candidates %v, untaken [ports, backward] skeletons %v; every kind must occur", taken, untaken)
	}
}

// TestClosureSelfLoopAndCyclicSkeleton: degenerate inputs. A dynamic
// self-loop is cyclic, and Reset clears it; Attach does not take a cyclic
// skeleton, whose HasCycle is then true for every candidate, one without
// dynamic edges included.
func TestClosureSelfLoopAndCyclicSkeleton(t *testing.T) {
	c := &Closure{}
	if !c.Attach(frozen(3, [2]int{0, 1}), []int32{1, 2}) {
		t.Fatal("Attach did not take a forward skeleton")
	}
	if c.HasCycle() {
		t.Fatal("acyclic skeleton without dynamic edges reported cyclic")
	}
	c.AddEdge(2, 2, 1)
	if !c.HasCycle() {
		t.Fatal("dynamic self-loop not reported cyclic")
	}
	c.Reset()
	if c.HasCycle() {
		t.Fatal("Reset did not clear the self-loop")
	}
	c.AddEdge(1, 2, 1)
	if c.HasCycle() {
		t.Fatal("one dynamic edge over an acyclic skeleton reported cyclic")
	}

	if c.Attach(frozen(3, [2]int{0, 1}, [2]int{1, 0}), []int32{2}) {
		t.Fatal("Attach took a cyclic skeleton")
	}
	if !c.HasCycle() {
		t.Fatal("cyclic skeleton without dynamic edges reported acyclic")
	}
	c.AddEdge(2, 2, 1)
	if !c.HasCycle() {
		t.Fatal("cyclic skeleton with a dynamic edge reported acyclic")
	}
}

// TestClosureNonPortEdgePanics: a dynamic edge with an endpoint outside
// the port set panics and names the edge, in a closure Attach took and in
// one it did not.
func TestClosureNonPortEdgePanics(t *testing.T) {
	skeletons := map[string]*Skeleton{
		"taken":   frozen(3, [2]int{0, 1}),
		"untaken": frozen(3, [2]int{0, 1}, [2]int{1, 0}),
	}
	for sk, s := range skeletons {
		for name, e := range map[string][2]int{"source": {0, 2}, "target": {2, 0}} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "not a port") || !strings.Contains(msg, "(reason 7)") {
						t.Errorf("%s closure, non-port %s: panic %q, want one naming the edge", sk, name, msg)
					}
				}()
				c := &Closure{}
				c.Attach(s, []int32{1, 2})
				c.AddEdge(e[0], e[1], 7)
			}()
		}
	}
}
