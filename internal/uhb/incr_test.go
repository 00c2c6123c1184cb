package uhb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refVerdict builds a fresh overlay holding exactly the live edge
// multiset in edges and returns its full-DFS verdict — the reference
// the incremental engine is checked against.
func refVerdict(s *Skeleton, edges map[[2]int]int) bool {
	o := AcquireOverlay(s)
	defer ReleaseOverlay(o)
	fillOverlay(o, s, edges)
	return o.HasCycle()
}

// fillOverlay resets ov to hold exactly the live edge multiset.
func fillOverlay(ov *Overlay, s *Skeleton, edges map[[2]int]int) {
	ov.Reset(s)
	for e, n := range edges {
		for i := 0; i < n; i++ {
			ov.AddEdge(e[0], e[1], 7)
		}
	}
}

// acyclicSkeleton builds a random frozen skeleton whose edges all run
// from a lower to a higher node, so every cycle needs a dynamic edge.
func acyclicSkeleton(rng *rand.Rand, n int) *Skeleton {
	s := NewSkeleton(n)
	for i := 0; i < n; i++ {
		if from, to := rng.Intn(n), rng.Intn(n); from < to {
			s.AddEdge(from, to, uint32(i))
		}
	}
	s.Freeze()
	return s
}

// TestQuickIncrMatchesFullDFS: after every step of an arbitrary
// add/retract sequence, syncing the incremental engine to an overlay
// holding the live edge set gives the full-DFS verdict on that set.
// One step changes at most one edge, so each Sync exercises a single
// insertion or retraction against the engine's running order. The
// skeleton is acyclic, so the verdicts turn on the dynamic edges: a
// retraction that breaks a cycle must commit the edge it deferred.
func TestQuickIncrMatchesFullDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		s := acyclicSkeleton(rng, n)
		ic := AcquireIncr(s)
		defer ReleaseIncr(ic)
		ov := AcquireOverlay(s)
		defer ReleaseOverlay(ov)
		live := map[[2]int]int{}
		for step := 0; step < 6*n; step++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if rng.Intn(3) == 0 && len(live) > 0 {
				// Retract a random live edge (picked deterministically so
				// a failing seed replays).
				keys := make([][2]int, 0, len(live))
				for e := range live {
					keys = append(keys, e)
				}
				sort.Slice(keys, func(i, j int) bool {
					if keys[i][0] != keys[j][0] {
						return keys[i][0] < keys[j][0]
					}
					return keys[i][1] < keys[j][1]
				})
				e := keys[rng.Intn(len(keys))]
				live[e]--
				if live[e] == 0 {
					delete(live, e)
				}
			} else {
				live[[2]int{from, to}]++
			}
			fillOverlay(ov, s, live)
			if cyclic, _ := ic.Sync(ov); cyclic != refVerdict(s, live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIncrSyncMatchesOverlay: across a sequence of overlay Resets
// with random edge sets over one skeleton — the per-candidate shape of
// an enumeration sweep — Sync's verdict always equals both
// Overlay.HasCycle and HasCycleReasons, and the provenance fallback on
// cyclic verdicts reports a non-empty reason multiset, identical to
// what the full DFS would have produced. The skeleton is acyclic, so
// every cycle runs through the candidate's dynamic edges.
func TestQuickIncrSyncMatchesOverlay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		s := acyclicSkeleton(rng, n)
		ic := AcquireIncr(s)
		defer ReleaseIncr(ic)
		ov := AcquireOverlay(s)
		defer ReleaseOverlay(ov)
		for cand := 0; cand < 12; cand++ {
			ov.Reset(s)
			for i := 0; i < rng.Intn(3*n); i++ {
				ov.AddEdge(rng.Intn(n), rng.Intn(n), uint32(1000+i))
			}
			cyclic, fresh := ic.Sync(ov)
			if fresh != (cand == 0) {
				return false
			}
			reasons, want := ov.HasCycleReasons(nil)
			if cyclic != want || cyclic != ov.HasCycle() {
				return false
			}
			if cyclic && len(reasons) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrSelfLoopAndCyclicSkeleton: degenerate inputs — a dynamic
// self-loop is immediately cyclic and retractable; a cyclic skeleton
// pins every verdict to cyclic.
func TestIncrSelfLoopAndCyclicSkeleton(t *testing.T) {
	s := NewSkeleton(3)
	s.AddEdge(0, 1, 0)
	s.Freeze()
	ic := AcquireIncr(s)
	defer ReleaseIncr(ic)
	ov := AcquireOverlay(s)
	defer ReleaseOverlay(ov)
	if cyclic, _ := ic.Sync(ov); cyclic {
		t.Fatal("fresh engine on acyclic skeleton reports a cycle")
	}
	ov.AddEdge(2, 2, 1)
	if cyclic, _ := ic.Sync(ov); !cyclic {
		t.Fatal("self-loop not reported cyclic")
	}
	ov.Reset(s)
	if cyclic, _ := ic.Sync(ov); cyclic {
		t.Fatal("retracting the self-loop did not clear the cycle")
	}

	cyc := NewSkeleton(2)
	cyc.AddEdge(0, 1, 0)
	cyc.AddEdge(1, 0, 0)
	cyc.Freeze()
	ic2 := AcquireIncr(cyc)
	defer ReleaseIncr(ic2)
	ov2 := AcquireOverlay(cyc)
	defer ReleaseOverlay(ov2)
	if cyclic, _ := ic2.Sync(ov2); !cyclic {
		t.Fatal("Sync on cyclic skeleton must stay cyclic with an empty overlay")
	}
}

// TestOverlayUseAfterReleasePanics: the pool invalidates a released
// overlay by dropping its skeleton binding; any further use must panic
// rather than corrupt a pooled buffer another worker may now own.
func TestOverlayUseAfterReleasePanics(t *testing.T) {
	s := NewSkeleton(2)
	s.AddEdge(0, 1, 0)
	s.Freeze()
	o := AcquireOverlay(s)
	ReleaseOverlay(o)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after ReleaseOverlay did not panic")
		}
	}()
	o.AddEdge(0, 1, 1)
}
