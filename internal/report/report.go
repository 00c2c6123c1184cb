// Package report renders TriCheck results as text: Figure 15-style
// bug/strict/equivalent charts per litmus family and µspec model, the
// Table 7 model matrix, mapping tables, and CSV for external plotting.
package report

import (
	"fmt"
	"io"
	"strings"

	"tricheck/internal/compile"
	"tricheck/internal/core"
	"tricheck/internal/isa"
	"tricheck/internal/uspec"
)

// Figure15 writes the per-family verdict chart for a set of suite results
// (one per stack), mirroring the paper's Figure 15 panels.
func Figure15(w io.Writer, results []*core.SuiteResult) {
	if len(results) == 0 {
		return
	}
	var families []string
	seen := map[string]bool{}
	for _, res := range results {
		for _, f := range res.FamilyNames() {
			if !seen[f] {
				seen[f] = true
				families = append(families, f)
			}
		}
	}
	for _, fam := range families {
		fmt.Fprintf(w, "── %s ──\n", fam)
		fmt.Fprintf(w, "%-45s %6s %6s %6s %6s  %s\n", "stack", "bugs", "strict", "equiv", "total", "bugs-by-specified-outcome")
		for _, res := range results {
			t := res.ByFamily[fam]
			if t == nil {
				continue
			}
			fmt.Fprintf(w, "%-45s %6d %6d %6d %6d  %d\n",
				res.Stack.Name(), t.Bugs, t.Strict, t.Equivalent, t.Total, t.SpecifiedBugs)
		}
	}
	fmt.Fprintf(w, "── aggregate ──\n")
	fmt.Fprintf(w, "%-45s %6s %6s %6s %6s   %s\n", "stack", "bugs", "strict", "equiv", "total", "chart (bugs #, strict +, equiv .)")
	for _, res := range results {
		t := res.Tally
		chart := strings.Repeat("#", scale(t.Bugs, t.Total)) +
			strings.Repeat("+", scale(t.Strict, t.Total)) +
			strings.Repeat(".", scale(t.Equivalent, t.Total))
		fmt.Fprintf(w, "%-45s %6d %6d %6d %6d   %s\n",
			res.Stack.Name(), t.Bugs, t.Strict, t.Equivalent, t.Total, chart)
	}
}

func scale(n, total int) int {
	if total == 0 {
		return 0
	}
	k := n * 40 / total
	if n > 0 && k == 0 {
		k = 1
	}
	return k
}

// CSV writes one row per (stack, family) with verdict counts.
func CSV(w io.Writer, results []*core.SuiteResult) {
	fmt.Fprintln(w, "stack,family,bugs,strict,equivalent,total,specified_bugs")
	for _, res := range results {
		for _, fam := range res.FamilyNames() {
			t := res.ByFamily[fam]
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d\n",
				res.Stack.Name(), fam, t.Bugs, t.Strict, t.Equivalent, t.Total, t.SpecifiedBugs)
		}
		t := res.Tally
		fmt.Fprintf(w, "%s,ALL,%d,%d,%d,%d,%d\n",
			res.Stack.Name(), t.Bugs, t.Strict, t.Equivalent, t.Total, t.SpecifiedBugs)
	}
}

// Table7 renders the µspec model matrix (paper Figure 7).
func Table7(w io.Writer, variant uspec.Variant) {
	fmt.Fprintf(w, "µSpec models (%s) — relaxed program order and store atomicity\n", variant)
	fmt.Fprintf(w, "%-8s %-4s %-4s %-4s %-5s %-5s %-5s %-12s %s\n",
		"model", "W→R", "W→W", "R→M", "MCA", "rMCA", "nMCA", "same-addr-RR", "notes")
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return ""
	}
	for _, r := range uspec.Table7(variant) {
		notes := ""
		if r.ViaCacheProtocol {
			notes = "write-back caches + non-stalling directory"
		}
		sar := "ordered"
		if r.SameAddrRRRelaxed {
			sar = "relaxed"
		}
		fmt.Fprintf(w, "%-8s %-4s %-4s %-4s %-5s %-5s %-5s %-12s %s\n",
			r.Name, mark(r.WR), mark(r.WW), mark(r.RM), mark(r.MCA), mark(r.RMCA), mark(r.NMCA), sar, notes)
	}
}

// MappingTable renders a compiler mapping like the paper's Tables 1–3.
func MappingTable(w io.Writer, m *compile.Mapping) {
	fmt.Fprintf(w, "%s (%s)\n", m.Name, m.Description)
	rows := []struct {
		c11    string
		recipe compile.Recipe
	}{
		{"ld rlx", m.LoadRlx}, {"ld acq", m.LoadAcq}, {"ld sc", m.LoadSC},
		{"st rlx", m.StoreRlx}, {"st rel", m.StoreRel}, {"st sc", m.StoreSC},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-7s → %s\n", r.c11, RecipeString(r.recipe, r.c11[:2] == "ld"))
	}
}

// RecipeString renders a recipe in the paper's notation.
func RecipeString(r compile.Recipe, isLoad bool) string {
	var parts []string
	for _, it := range r {
		switch it.Kind {
		case compile.KFence:
			switch it.Cum {
			case isa.CumLW:
				parts = append(parts, "lwf")
			case isa.CumHW:
				parts = append(parts, "hwf")
			default:
				parts = append(parts, fmt.Sprintf("f[%s,%s]", it.Pred, it.Succ))
			}
		case compile.KAccess:
			if isLoad {
				parts = append(parts, "ld")
			} else {
				parts = append(parts, "st")
			}
		case compile.KAMO:
			s := "AMO"
			if it.Aq {
				s += ".aq"
			}
			if it.Rl {
				s += ".rl"
			}
			if it.SC {
				s += ".sc"
			}
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "; ")
}
