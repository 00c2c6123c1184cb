package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tricheck"
)

// cmdCoverage implements `tricheck coverage`: run the selected sweep and
// report the engine's verification-coverage ledger — which µspec axioms
// fired edges, owned stored (post-dedup) edges and witnessed forbidding
// cycles, per model — plus, with -discriminate, the greedy minimal test
// suite separating every pair of swept configs. `coverage diff` compares
// two saved snapshots instead of sweeping.
func cmdCoverage(args []string) {
	if len(args) > 0 && args[0] == "diff" {
		cmdCoverageDiff(args[1:])
		return
	}
	fs := flag.NewFlagSet("coverage", flag.ExitOnError)
	family := fs.String("family", "", "restrict to one litmus family (mp, sb, wrc, ...)")
	isaFlag := fs.String("isa", "both", "ISA flavour: base, base+a or both")
	variant := fs.String("variant", "both", "MCM version: curr, ours or both")
	var modelFiles multiFlag
	fs.Var(&modelFiles, "model-file", "µspec model spec file to verify instead of the Table 7 matrix (repeatable)")
	lattice := fs.Bool("lattice", false, "sweep every legal microarchitecture config of the selected variant(s), not just Table 7")
	workers := fs.Int("workers", 0, "parallel farm workers (0 = GOMAXPROCS)")
	cache := fs.String("cache", "", "memoized result cache snapshot (JSON); loaded if present, saved after the run")
	discriminate := fs.Bool("discriminate", false, "reduce the verdict-vector matrix to the minimal discriminating suite (greedy set cover over config pairs)")
	coverageOut := fs.String("coverage-out", "", "write the full ledger snapshot as JSON to this file (\"-\" = stdout)")
	topK := fs.Int("k", 10, "rows per report table")
	fs.Parse(args)

	tests, err := familyTests(*family)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck coverage: %v\n", err)
		os.Exit(2)
	}
	stacks, err := selectStacks(*isaFlag, *variant, flagGiven(fs, "variant"), modelFiles, *lattice)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck coverage: %v\n", err)
		os.Exit(2)
	}

	eng := tricheck.NewEngine()
	if *cache != "" {
		if err := tricheck.LoadMemoSnapshotLenient(eng, *cache, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck coverage: loading cache: %v\n", err)
			os.Exit(1)
		}
	}
	if _, err := eng.SweepStream(tests, stacks, *workers, nil); err != nil {
		fmt.Fprintf(os.Stderr, "tricheck coverage: %v\n", err)
		os.Exit(1)
	}
	if *cache != "" {
		if err := eng.SaveMemoSnapshot(*cache); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck coverage: saving cache: %v\n", err)
			os.Exit(1)
		}
	}

	snap := eng.Coverage().Snapshot()
	if *coverageOut != "" {
		if err := emitJSON(*coverageOut, snap); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck coverage: %v\n", err)
			os.Exit(1)
		}
		if *coverageOut != "-" {
			fmt.Fprintf(os.Stderr, "coverage snapshot written to %s\n", *coverageOut)
		}
	}

	nAxioms := len(snap.Axioms)
	fmt.Printf("tricheck coverage: %d tests × %d configs, %d executed jobs\n",
		len(tests), len(stacks), snap.Totals.Jobs)
	fmt.Printf("axioms: %d/%d fired, %d/%d edged, %d/%d cycle-witnessed; %d verdict vectors\n\n",
		snap.Totals.AxiomsFired, nAxioms, snap.Totals.AxiomsEdged, nAxioms,
		snap.Totals.AxiomsCycled, nAxioms, snap.Totals.Vectors)

	fmt.Println("── per-model axiom coverage ──")
	fmt.Printf("  %-28s %7s %20s %6s %6s %7s\n", "MODEL", "JOBS", "VERDICTS(B/S/E)", "FIRED", "EDGED", "CYCLED")
	for i, mm := range snap.Models {
		if i >= *topK {
			fmt.Printf("  … %d more models (see -coverage-out for the full matrix)\n", len(snap.Models)-i)
			break
		}
		fired, edged, cycled := 0, 0, 0
		for _, row := range mm.Axioms {
			if row.Fired > 0 {
				fired++
			}
			if row.Edges > 0 {
				edged++
			}
			if row.Cycles > 0 {
				cycled++
			}
		}
		verdicts := fmt.Sprintf("%d/%d/%d", mm.Verdicts["Bug"], mm.Verdicts["OverlyStrict"], mm.Verdicts["Equivalent"])
		fmt.Printf("  %-28s %7d %20s %6d %6d %7d\n", clip(mm.Model, 28), mm.Jobs, verdicts, fired, edged, cycled)
	}

	if *discriminate {
		suite := eng.Coverage().Discrimination().MinimalSuite()
		fmt.Printf("\n── minimal discriminating suite ──\n")
		fmt.Printf("  %d configs, %d separable pairs, %d inseparable pairs\n",
			suite.Configs, suite.SeparablePairs, len(suite.Inseparable))
		for i, p := range suite.Picks {
			fmt.Printf("  %3d. %-40s separates %d pairs\n", i+1, clip(p.Test, 40), p.Separated)
		}
		if len(suite.Picks) > 0 {
			fmt.Printf("  → %d tests separate every separable pair of %d configs\n", len(suite.Picks), suite.Configs)
		}
		for i, pair := range suite.Inseparable {
			if i >= *topK {
				fmt.Printf("  … %d more inseparable pairs\n", len(suite.Inseparable)-i)
				break
			}
			fmt.Printf("  inseparable: %s ≡ %s (identical verdict vectors)\n", pair[0], pair[1])
		}
	}
}

// cmdCoverageDiff implements `tricheck coverage diff old.json new.json`:
// load two ledger snapshots and report verdict flips and axiom-coverage
// regressions. With -fail, a non-clean diff exits 3 (the CI gate for
// model edits).
func cmdCoverageDiff(args []string) {
	fs := flag.NewFlagSet("coverage diff", flag.ExitOnError)
	failFlag := fs.Bool("fail", false, "exit non-zero (3) when the diff has verdict flips or coverage regressions")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tricheck coverage diff [-fail] [-json] old.json new.json")
		os.Exit(2)
	}
	old, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck coverage diff: %v\n", err)
		os.Exit(1)
	}
	cur, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck coverage diff: %v\n", err)
		os.Exit(1)
	}
	d := tricheck.DiffCoverage(old, cur)
	if *jsonOut {
		if err := emitJSON("-", d); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck coverage diff: %v\n", err)
			os.Exit(1)
		}
	} else {
		if d.Clean() {
			fmt.Printf("coverage diff: clean (%d vectors only in old, %d only in new)\n", d.OnlyOld, d.OnlyNew)
		}
		for _, f := range d.Flips {
			fmt.Printf("flip: %s on %s: %s → %s\n", f.Test, f.Stack, f.Old, f.New)
		}
		for _, r := range d.Regressions {
			fmt.Printf("regression: model %s lost all %s coverage of axiom %s\n", r.Model, r.Kind, r.Axiom)
		}
		if !d.Clean() {
			fmt.Printf("coverage diff: %d verdict flips, %d coverage regressions\n", len(d.Flips), len(d.Regressions))
		}
	}
	if *failFlag && !d.Clean() {
		os.Exit(3)
	}
}

// loadSnapshot reads a coverage snapshot JSON file (a -coverage-out file
// or a saved GET /v1/coverage body).
func loadSnapshot(path string) (*tricheck.CoverageSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s tricheck.CoverageSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing snapshot %s: %w", path, err)
	}
	return &s, nil
}

// emitJSON writes v as indented JSON to path ("-" = stdout) — the one
// encoder shared by `coverage -coverage-out`, `coverage diff -json` and
// `top -json`, so every machine-readable report has the same shape
// conventions.
func emitJSON(path string, v any) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
