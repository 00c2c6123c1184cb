package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n samples spread evenly over ±width around center.
func around(center, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + width*(2*float64(i)/float64(n-1)-1)
	}
	return out
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	thr := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		verdict string
		gain    bool
	}{
		{"same", lat, around(100, 2, 10), around(100, 2, 10), "within bound", false},
		{"5% slower", lat, around(100, 2, 10), around(105, 2, 10), "within bound", false},
		{"20% slower", lat, around(100, 2, 10), around(120, 2, 10), "regression", false},
		{"20% less throughput", thr, around(100, 2, 10), around(80, 2, 10), "regression", false},
		{"too noisy", lat, around(100, 30, 10), around(100, 2, 10), "unresolved", false},
		{"noisy but always better", lat, around(100, 30, 10), around(50, 1, 10), "within bound", true},
		{"20% faster", lat, around(100, 2, 10), around(80, 2, 10), "within bound", true},
		{"20% more throughput", thr, around(100, 2, 10), around(120, 2, 10), "within bound", true},
		// A 1% edge inside the parent's own 2% IQR is no gain, however
		// consistent.
		{"within the parent's spread", lat, around(100, 2, 10), around(99, 2, 10), "within bound", false},
	} {
		j := judge(c.d, c.a, c.b)
		if j.verdict != c.verdict || j.gain != c.gain {
			t.Errorf("%s: verdict %q gain %v, want %q gain %v", c.name, j.verdict, j.gain, c.verdict, c.gain)
		}
	}

	// The pair rule: nine wins in ten pairs is a gain, eight is not.
	a := around(100, 1, 10)
	b := make([]float64, 10)
	for i := range b {
		b[i] = a[i] - 10
	}
	b[0] = a[0] + 1
	if !judge(lat, a, b).gain {
		t.Error("9 of 10 pairs won: want a gain")
	}
	b[1] = a[1] + 1
	if judge(lat, a, b).gain {
		t.Error("8 of 10 pairs won: want no gain")
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var buf bytes.Buffer
		for i := range 10 {
			fmt.Fprintf(&buf, `{"meta":{"workload":"paper-sweep","seed":%d,"nproc":2,"gomaxprocs":2,"go":"go1.24.0","seconds":15,"trace":false}}`+"\n", i)
			buf.WriteString("a line of other output\n")
			fmt.Fprintf(&buf, `{"correct":true,"attempted":1,"failed":0,"metrics":{`)
			for k, d := range endToEnd {
				if k > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(&buf, `%q:{"value":%v,"unit":%q}`, d.Name, scale*(100+float64(i%3)), d.Unit)
			}
			buf.WriteString("}}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a", 1), write("same", 1), write("slower", 1.5)

	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "within bound"); n != len(endToEnd) {
		t.Errorf("identical sets: %d metrics within bound, want %d\n%s", n, len(endToEnd), out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slower); code != 3 {
		t.Errorf("every metric 50%% larger: exit %d, want 3\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regression") {
		t.Errorf("no regression reported\n%s", out.String())
	}
}
