package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{layer: layerJob, parent: -1, start: 0, end: 100},
		{layer: layerCompile, parent: 0, start: 10, end: 30},
		{layer: layerSkeleton, parent: 0, start: 20, end: 50},   // overlaps its sibling
		{layer: layerEnumerate, parent: 0, start: 90, end: 120}, // runs past its parent
		{layer: layerCycle, parent: 1, start: 15, end: 25},      // grandchild
	}
	// The root's children cover [10,50] and [90,100]: 50 of its 100.
	want := []int64{50, 10, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].layer, got[i], want[i])
		}
	}
}

func TestBudgetBalances(t *testing.T) {
	tree := func(start int64) []span {
		return []span{
			{layer: layerJob, parent: -1, start: start, end: start + 40},
			{layer: layerCompile, parent: 0, start: start + 5, end: start + 15},
			{layer: layerCycle, parent: 0, start: start + 15, end: start + 35},
		}
	}
	var b layerBudget
	// Two workers, 100ns of wall, 90 of them in the farm: capacity 200,
	// farm 180 minus 80 of job trees.
	b.addRun([][]span{tree(0), tree(50), nil}, 100, 90, 2)
	if err := b.balanced(); err != nil {
		t.Fatal(err)
	}
	for l, want := range map[layer]int64{layerCompile: 20, layerCycle: 40, layerFarm: 100, layerJob: 20} {
		if b.self[l] != want {
			t.Errorf("%s self %d, want %d", l, b.self[l], want)
		}
	}
	if u := b.unattributed(); u != 40 {
		t.Errorf("unattributed %d, want 40: 20 of job glue and 20 outside the farm", u)
	}
	total := float64(b.unattributed()) / float64(b.capacity)
	for _, l := range reportedLayers {
		total += b.share(l)
	}
	if total < 0.999999 || total > 1.000001 {
		t.Errorf("shares plus unattributed sum to %v, want 1", total)
	}

	// Jobs claiming more time than the farm had workers for is a bug the
	// check must catch.
	var over layerBudget
	over.addRun([][]span{tree(0), tree(0), tree(0)}, 50, 50, 2)
	if over.balanced() == nil {
		t.Error("three overlapping 40ns jobs on two workers for 50ns passed the balance check")
	}
}

func TestRecorderNests(t *testing.T) {
	rec := recorder{epoch: time.Now()}
	root := rec.begin(layerJob, -1)
	child := rec.begin(layerCompile, root)
	rec.end(child)
	rec.end(root)
	if rec.spans[child].parent != root || rec.spans[child].start < rec.spans[root].start || rec.spans[child].end > rec.spans[root].end {
		t.Errorf("child span %+v does not nest in root %+v", rec.spans[child], rec.spans[root])
	}
}
