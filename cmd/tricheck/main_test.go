package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"tricheck"
)

// buildOnce compiles the tricheck binary once per test process.
var buildOnce = sync.Once{}
var builtBin string
var buildErr error

func tricheckBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tricheck-e2e-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "tricheck")
		out, err := exec.Command("go", "build", "-o", builtBin, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			builtBin = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tricheck: %v\n%s", buildErr, builtBin)
	}
	return builtBin
}

// scSpecFile writes the SC-machine µspec config (the profile the
// miswire hook targets) to a spec file and returns its path.
func scSpecFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sc.uspec")
	spec := tricheck.SCProofModel().Config.EmitSpec()
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// TestCLIFailOnDivergence is the divergence-path e2e: with the opsim
// driver deliberately miswired via the env hook, a backend=both sweep
// must report the cross-check disagreement (not crash) and
// -fail-on-divergence must exit 4.
func TestCLIFailOnDivergence(t *testing.T) {
	bin := tricheckBin(t)
	spec := scSpecFile(t)
	cmd := exec.Command(bin, "-family", "sb", "-isa", "base", "-backend", "both", "-fail-on-divergence", "-model-file", spec)
	cmd.Env = append(os.Environ(), "TRICHECK_OPSIM_MISWIRE=1")
	out, err := cmd.CombinedOutput()
	if code := exitCode(err); code != 4 {
		t.Fatalf("exit code %d, want 4\n%s", code, out)
	}
	if !strings.Contains(string(out), "divergence") {
		t.Fatalf("output does not mention the divergence:\n%s", out)
	}
}

// TestCLIBackendBothClean: the same sweep without the miswire hook
// cross-checks cleanly — exit 0, no divergence note.
func TestCLIBackendBothClean(t *testing.T) {
	bin := tricheckBin(t)
	spec := scSpecFile(t)
	cmd := exec.Command(bin, "-family", "sb", "-isa", "base", "-backend", "both", "-fail-on-divergence", "-model-file", spec)
	out, err := cmd.CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	if strings.Contains(string(out), "divergence") {
		t.Fatalf("clean cross-check reported a divergence:\n%s", out)
	}
}

// TestCLIBackendOpsimRejectsUnsupported: backend=opsim over the builtin
// curr matrix (which includes configs with no operational machine) is a
// usage error, not a partial sweep.
func TestCLIBackendOpsimRejectsUnsupported(t *testing.T) {
	bin := tricheckBin(t)
	cmd := exec.Command(bin, "-family", "mp", "-isa", "base", "-backend", "opsim", "-variant", "curr")
	out, err := cmd.CombinedOutput()
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit code %d, want 2\n%s", code, out)
	}
	if !strings.Contains(string(out), "backend") {
		t.Fatalf("error does not mention the backend:\n%s", out)
	}
}

// TestCLIMetricsOutIsPrometheusText: -metrics-out writes the registry in
// the exposition format tricheckd's /metrics serves, including the
// executed-verdict counter and the sweep's HLL phase timings.
func TestCLIMetricsOutIsPrometheusText(t *testing.T) {
	bin := tricheckBin(t)
	path := filepath.Join(t.TempDir(), "metrics.prom")
	out, err := exec.Command(bin, "-family", "mp", "-isa", "base", "-variant", "curr", "-csv", "-metrics-out", path).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	metrics, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\n# TYPE tricheck_verdicts_total counter\n") {
		t.Errorf("metrics file lacks the verdict counter's TYPE line:\n%s", metrics)
	}
	if !regexp.MustCompile(`(?m)^tricheck_verdict_phase_seconds_count\{phase="hll"\} [1-9]`).Match(metrics) {
		t.Errorf("metrics file has no nonzero hll phase count:\n%s", metrics)
	}
}
