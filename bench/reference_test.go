package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tricheck/internal/core"
	"tricheck/internal/litmus"
)

var update = flag.Bool("update", false, "regenerate testdata/*.txt.gz by sweeping every workload's whole catalog")

// referenceCorpora are the batch workloads' whole corpora as their
// references are generated: every test, in catalog order.
func referenceCorpora(t *testing.T) map[string]struct {
	c       *catalog
	stacks  []core.Stack
	backend core.Backend
} {
	synthC, err := synthCorpus()
	if err != nil {
		t.Fatal(err)
	}
	stacks := func(isa, variant string) []core.Stack {
		s, err := core.SelectStacks(isa, variant)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type entry = struct {
		c       *catalog
		stacks  []core.Stack
		backend core.Backend
	}
	return map[string]entry{
		"paper-sweep": {newCatalog(litmus.PaperShapes()), stacks("both", "both"), core.BackendUHB},
		"synth-sweep": {synthC, stacks("base", "curr"), core.BackendUHB},
		"crosscheck":  {newCatalog(crosscheckShapes()), stacks("base+a", "curr"), core.BackendBoth},
	}
}

func TestUpdateReferences(t *testing.T) {
	if !*update {
		t.Skip("regenerates the reference tables only with -update")
	}
	for name, rc := range referenceCorpora(t) {
		tests := make([]*litmus.Test, rc.c.n)
		for i := range tests {
			tests[i] = rc.c.test(i)
		}
		results, err := core.NewEngine().SweepStreamBackend(context.Background(), tests, rc.stacks, 0, rc.backend, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join("testdata", name+".txt.gz"))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeReference(f, rc.c, rc.stacks, results); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
