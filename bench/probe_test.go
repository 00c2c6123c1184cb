package main

import (
	"testing"
	"time"
)

// The probe must not depend on the heap the measured program leaves
// behind, so its kernel allocates nothing.
func TestProbeAllocatesNothing(t *testing.T) {
	p, err := newProbe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if n := testing.AllocsPerRun(2, func() { p.ws[0].chunk(7) }); n != 0 {
		t.Errorf("a probe chunk allocates %v times", n)
	}
}

func TestProbeScale(t *testing.T) {
	p := &probe{ws: make([]*probeWorker, 2)}
	at := func(f float64) probeTime {
		d := time.Duration(f * float64(probeRef))
		return probeTime{wall: d, cpu: 2 * d}
	}
	if sc := p.between(at(1), at(1)); sc.wall != 1 || sc.cpu != 1 {
		t.Errorf("probes at the reference speed scale by %+v, want 1", sc)
	}
	// A host half as fast, measured by probes 1.5 and 2.5 times probeRef.
	if sc := p.between(at(1.5), at(2.5)); sc.wall != 0.5 || sc.cpu != 0.5 {
		t.Errorf("probes at half the reference speed scale by %+v, want 0.5", sc)
	}
}
