package main

import (
	"path/filepath"
	"testing"
)

// checkOutcome asserts a run measured every metric in defs (but the
// set-up time, which the caller adds) and attempted something.
func checkOutcome(t *testing.T, name string, out *outcome, defs []metricDef) {
	t.Helper()
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", name, out.attempted, out.failed)
	}
	for _, d := range defs {
		if _, ok := out.metrics[d.Name]; !ok && d.Name != "setup_s" {
			t.Errorf("%s: %s not measured", name, d.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload's measure and trace on a small
// input: the batch workloads on a few tests, the service for a fraction
// of a second.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("primes tricheckd with the paper suite")
	}
	p, err := newProbe(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for name, setup := range map[string]func(uint64, int) (*batch, error){
		"paper-sweep": paperSweep, "synth-sweep": synthSweep, "crosscheck": crosscheck,
	} {
		b, err := setup(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The paper's headline counts need the whole suite.
		b.tests, b.pos, b.extra = b.tests[:12], b.pos[:12], nil
		out, err := b.measure(0, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkOutcome(t, name, out, endToEnd)
		out, err = b.trace(0, filepath.Join(t.TempDir(), "spans.csv.gz"))
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkOutcome(t, name+" traced", out, perLayer)
	}

	s, err := newService(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	out, err := s.measure(0, p)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "service-stream", out, endToEnd)
	out, err = s.trace(0, filepath.Join(t.TempDir(), "spans.csv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "service-stream traced", out, perLayer)
}
