package main

import (
	"reflect"
	"testing"

	"tricheck/api"
	"tricheck/internal/litmus"
)

func TestCatalogMatchesGenerate(t *testing.T) {
	synthC, err := synthCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*catalog{newCatalog(litmus.PaperShapes()), newCatalog(crosscheckShapes()), synthC} {
		i := 0
		for _, s := range c.shapes {
			for _, want := range s.Generate() {
				if got := c.test(i); got.Name != want.Name || got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("position %d: %s, Generate has %s", i, got.Name, want.Name)
				}
				i++
			}
		}
		if i != c.n {
			t.Fatalf("catalog of %d tests, Generate yields %d", c.n, i)
		}
	}
	if n := newCatalog(litmus.PaperShapes()).n; n != 1701 {
		t.Errorf("paper catalog has %d tests, want 1701", n)
	}
	if synthC.n != 64827 {
		t.Errorf("synthesized catalog has %d tests, want 64827", synthC.n)
	}
}

// testNames lists a batch's tests in sweep order.
func testNames(b *batch) []string {
	out := make([]string, len(b.tests))
	for i, t := range b.tests {
		out[i] = t.Name
	}
	return out
}

func TestSeededInputs(t *testing.T) {
	for name, setup := range map[string]func(uint64, int) (*batch, error){
		"paper-sweep": paperSweep, "synth-sweep": synthSweep, "crosscheck": crosscheck,
	} {
		draw := func(seed uint64) []string {
			b, err := setup(seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			return testNames(b)
		}
		a, again, other := draw(7), draw(7), draw(8)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: seed 7 drew two different test lists", name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 drew the same test list", name)
		}
	}

	pool, err := synthCorpus()
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(seed uint64) []api.VerifyRequest {
		reqs, err := serviceRequests(seed, pool, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]api.VerifyRequest, len(reqs))
		for i, r := range reqs {
			out[i] = r.body
		}
		return out
	}
	a, again, other := bodies(7), bodies(7), bodies(8)
	if !reflect.DeepEqual(a, again) {
		t.Error("service-stream: seed 7 generated two different request lists")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("service-stream: seeds 7 and 8 generated the same request list")
	}
	inline := 0
	for _, b := range a {
		if len(b.Litmus) > 0 {
			inline++
		}
	}
	if want := 2 * len(isaChoices) * len(variantChoices) * inlinePerCombo; inline != want || len(a) != want+2*63 {
		t.Errorf("two blocks hold %d requests, %d inline; want %d, %d inline", len(a), inline, want+2*63, want)
	}
}
