package cover

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"tricheck/api"
)

// vectorRecord is one RecordVector call.
type vectorRecord struct {
	test, stack string
	verdict     uint8
}

// vectorRecords returns a deterministic record sequence that exercises
// the ledger's byte rows: every test meets the stacks in its own order,
// the stack "late" is first seen after many rows exist, records repeat,
// and a third of the verdicts are ordinal 0 (Equivalent). Verdicts come
// from the (test, stack) pair and flip, so two seeds give the same pairs
// with some verdicts changed.
func vectorRecords(seed int64, flip int) []vectorRecord {
	rng := rand.New(rand.NewSource(seed))
	stacks := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	var recs []vectorRecord
	for ti := 0; ti < 12; ti++ {
		test := fmt.Sprintf("t%02d", ti)
		order := append([]string(nil), stacks...)
		if ti >= 8 {
			order = append(order, "late")
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for si, stack := range order {
			if (ti+si)%5 == 4 {
				continue // a partial row: this pair is never recorded
			}
			v := uint8((ti*7 + len(stack) + int(stack[len(stack)-1]) + flip*(ti%3)) % 3)
			recs = append(recs, vectorRecord{test, stack, v})
			if rng.Intn(3) == 0 {
				recs = append(recs, vectorRecord{test, stack, v})
			}
		}
	}
	return recs
}

// mapLedger is the ledger's vectors as nested maps, the form the byte
// rows replace: test → stack → verdict ordinal.
type mapLedger map[string]map[string]uint8

func (m mapLedger) record(r vectorRecord) {
	if m[r.test] == nil {
		m[r.test] = map[string]uint8{}
	}
	m[r.test][r.stack] = r.verdict
}

func (m mapLedger) snapshotVectors() []api.VectorRecord {
	var out []api.VectorRecord
	for test, row := range m {
		for stack, v := range row {
			out = append(out, api.VectorRecord{Test: test, Stack: stack, Verdict: testVerdicts[v]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Test != out[j].Test {
			return out[i].Test < out[j].Test
		}
		return out[i].Stack < out[j].Stack
	})
	return out
}

func (m mapLedger) discrimination() *Discrimination {
	d := &Discrimination{}
	stackSet := map[string]bool{}
	for test, row := range m {
		d.Tests = append(d.Tests, test)
		for stack := range row {
			if !stackSet[stack] {
				stackSet[stack] = true
				d.Stacks = append(d.Stacks, stack)
			}
		}
	}
	sort.Strings(d.Tests)
	sort.Strings(d.Stacks)
	for _, test := range d.Tests {
		row := make([]int8, len(d.Stacks))
		for j, stack := range d.Stacks {
			row[j] = -1
			if v, ok := m[test][stack]; ok {
				row[j] = int8(v)
			}
		}
		d.Verdict = append(d.Verdict, row)
	}
	return d
}

// TestLedgerRowsMatchMap records the same vectors in a ledger and in
// nested maps, and requires Snapshot, TotalsNow, Discrimination,
// MinimalSuite and Diff to read the rows as the maps read.
func TestLedgerRowsMatchMap(t *testing.T) {
	record := func(recs []vectorRecord) (*Ledger, mapLedger) {
		l, m := NewLedger(testAxioms, testVerdicts), mapLedger{}
		for _, r := range recs {
			l.RecordVector(r.test, r.stack, r.verdict)
			m.record(r)
		}
		return l, m
	}
	oldL, oldM := record(vectorRecords(1, 0))
	curL, curM := record(vectorRecords(2, 1))

	for _, side := range []struct {
		name string
		l    *Ledger
		m    mapLedger
	}{{"old", oldL, oldM}, {"cur", curL, curM}} {
		snap := side.l.Snapshot()
		want := side.m.snapshotVectors()
		if !reflect.DeepEqual(snap.Vectors, want) {
			t.Fatalf("%s: snapshot vectors %v, map %v", side.name, snap.Vectors, want)
		}
		if snap.Totals.Vectors != len(want) || side.l.TotalsNow().Vectors != len(want) {
			t.Errorf("%s: %d vectors in the snapshot totals and %d in TotalsNow, map %d",
				side.name, snap.Totals.Vectors, side.l.TotalsNow().Vectors, len(want))
		}
		d, wantD := side.l.Discrimination(), side.m.discrimination()
		if !reflect.DeepEqual(d, wantD) {
			t.Fatalf("%s: discrimination %+v, map %+v", side.name, d, wantD)
		}
		if got, want := d.MinimalSuite(), wantD.MinimalSuite(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: minimal suite %+v, map %+v", side.name, got, want)
		}
	}
	mapSnap := func(m mapLedger) *api.CoverageSnapshot {
		return &api.CoverageSnapshot{Vectors: m.snapshotVectors()}
	}
	got, want := Diff(oldL.Snapshot(), curL.Snapshot()), Diff(mapSnap(oldM), mapSnap(curM))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diff %+v, map %+v", got, want)
	}
	if len(want.Flips) == 0 || want.OnlyOld+want.OnlyNew == 0 {
		t.Errorf("the two recordings differ by %d flips and %d+%d one-sided vectors; want both kinds", len(want.Flips), want.OnlyOld, want.OnlyNew)
	}
	equivalent, partial := 0, false
	for _, v := range oldM.snapshotVectors() {
		if v.Verdict == testVerdicts[0] {
			equivalent++
		}
	}
	for _, row := range oldL.Discrimination().Verdict {
		partial = partial || slices.Contains(row, -1)
	}
	if equivalent == 0 || !partial {
		t.Errorf("%d Equivalent records, partial rows %v; want both", equivalent, partial)
	}
}

// TestLedgerConcurrentVectors records vectors from several goroutines
// while others read the ledger, then requires the snapshot of every
// record. Run it under -race: the rows, the column table and the row
// map are shared.
func TestLedgerConcurrentVectors(t *testing.T) {
	l := NewLedger(testAxioms, testVerdicts)
	m := mapLedger{}
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := l.Snapshot()
				if tot := l.TotalsNow(); tot.Vectors < s.Totals.Vectors {
					t.Errorf("TotalsNow counts %d vectors after a snapshot of %d", tot.Vectors, s.Totals.Vectors)
				}
				l.Discrimination()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		recs := vectorRecords(int64(10+w), 0)
		for _, r := range recs {
			// Writers record disjoint tests, so the map's last write per
			// pair is the same in any interleaving.
			r.test = fmt.Sprintf("w%d/%s", w, r.test)
			m.record(r)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for range 50 { // repeats, so that the readers overlap the writes
				for _, r := range recs {
					l.RecordVector(fmt.Sprintf("w%d/%s", w, r.test), r.stack, r.verdict)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := l.Snapshot().Vectors, m.snapshotVectors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after concurrent records: %d vectors, map %d", len(got), len(want))
	}
}
