package uspec_test

import (
	"testing"

	"tricheck/internal/compile"
	"tricheck/internal/synth"
	"tricheck/internal/uspec"
)

// TestTiersMatchWholeBuildSynth is TestTiersMatchWholeBuild on a sample
// of the synthesized corpus (every 4th test of the novel shapes up to
// length 5 with dependencies, every 16th under -short) on the 7
// base/curr stacks. Its control dependencies give it threads that differ
// only in them.
func TestTiersMatchWholeBuildSynth(t *testing.T) {
	res, err := synth.Enumerate(synth.Options{MaxLen: 5, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	stride := 4
	if testing.Short() {
		stride = 16
	}
	models := uspec.Models(uspec.Curr)
	tc := uspec.NewTierCheck(t, len(models))
	i := 0
	for _, s := range synth.NovelOnly(res) {
		for _, tst := range s.Shape.Generate() {
			if i++; i%stride != 0 {
				continue
			}
			prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
			if err != nil {
				t.Fatalf("compile %s: %v", tst.Name, err)
			}
			tc.Check(tst.Name, prog, models, 0)
		}
	}
	t.Logf("%d of %d pairs assembled from stored tiers", tc.Hits, tc.Pairs)
	if tc.Hits == 0 {
		t.Error("no pair was assembled from tiers")
	}
}
