package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry covering every metric
// kind, label shapes and the histogram bucket rendering.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("tricheck_jobs_total", "Jobs by disposition.", L("disposition", "executed")).Add(7)
	r.Counter("tricheck_jobs_total", "Jobs by disposition.", L("disposition", "stolen")).Add(2)
	r.Counter("tricheck_runs_total", "Runs started.").Inc()
	r.Gauge("tricheck_inflight", "Requests currently sweeping.").Set(3)
	h := r.Histogram("tricheck_job_seconds", "Job run time.", []float64{0.001, 0.01, 0.1}, L("phase", "enumerate"))
	h.ObserveSeconds(0.0005)
	h.ObserveSeconds(0.005)
	h.ObserveSeconds(0.05)
	h.ObserveSeconds(2)
	return r
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte.
// Regenerate with `go test ./internal/obs -run Golden -update` after an
// intentional format change.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestWritePrometheusWellFormed checks the structural invariants a
// scraper relies on, independent of the exact golden bytes.
func TestWritePrometheusWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tricheck_jobs_total counter",
		"# TYPE tricheck_inflight gauge",
		"# TYPE tricheck_job_seconds histogram",
		`tricheck_job_seconds_bucket{phase="enumerate",le="+Inf"} 4`,
		`tricheck_job_seconds_count{phase="enumerate"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Each HELP/TYPE pair appears once per family, not per series.
	if n := strings.Count(out, "# TYPE tricheck_jobs_total"); n != 1 {
		t.Errorf("TYPE line for tricheck_jobs_total appears %d times", n)
	}
}
