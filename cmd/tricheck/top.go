package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tricheck"
)

// cmdTop implements `tricheck top`: run a sweep on a fresh engine with
// its cost matrix on and no memo cache (every job executes, so every job
// is costed) and print a hot-spot report from the cost matrix: where
// the verification time went, by phase, stack and test. Cells,
// stacks and tests rank by attributed phase time (JobCost.Work), so a
// job that waited on another worker does not rank as one that worked.
func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	family := fs.String("family", "", "restrict to one litmus family (mp, sb, wrc, ...)")
	isaFlag := fs.String("isa", "both", "ISA flavour: base, base+a or both")
	variant := fs.String("variant", "both", "MCM version: curr, ours or both")
	workers := fs.Int("workers", 0, "parallel farm workers (0 = GOMAXPROCS)")
	topK := fs.Int("k", 10, "rows per ranking table")
	jsonOut := fs.Bool("json", false, "emit the hot-spot report as JSON instead of tables")
	fs.Parse(args)

	tests, err := familyTests(*family)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck top: %v\n", err)
		os.Exit(2)
	}
	stacks, err := tricheck.SelectStacks(*isaFlag, *variant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck top: %v\n", err)
		os.Exit(2)
	}

	eng := tricheck.NewEngine()
	eng.EnableCostMatrix()
	start := time.Now()
	if _, err := eng.SweepStream(tests, stacks, *workers, nil); err != nil {
		fmt.Fprintf(os.Stderr, "tricheck top: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	costs := eng.CostMatrix()
	if len(costs) == 0 {
		fmt.Println("tricheck top: no executed jobs (nothing to rank)")
		return
	}
	var total, hll, compile, skeleton, enumerate time.Duration
	for _, c := range costs {
		total += c.Total
		hll += c.HLL
		compile += c.Compile
		skeleton += c.Skeleton
		enumerate += c.Enumerate
	}
	// Total is job wall time, not CPU time. The sweep had wall × workers
	// of capacity; what no job accounts for (scheduling, result
	// assembly, idle workers at the tail) is reported, not hidden.
	farmWorkers := eng.LastFarmStats().Workers
	capacity := elapsed * time.Duration(farmWorkers)
	unattributed := capacity - total

	if *jsonOut {
		rep := topReport{
			Tests:          len(tests),
			Stacks:         len(stacks),
			Jobs:           len(costs),
			ElapsedSeconds: elapsed.Seconds(),
			Phases: map[string]float64{
				"hll":          hll.Seconds(),
				"compile":      compile.Seconds(),
				"skeleton":     skeleton.Seconds(),
				"enumerate":    enumerate.Seconds(),
				"total":        total.Seconds(),
				"unattributed": unattributed.Seconds(),
			},
		}
		for i, c := range costs {
			if i >= *topK {
				break
			}
			rep.Cells = append(rep.Cells, topCell{
				Test: c.Test, Stack: c.Stack,
				TotalSeconds:     c.Total.Seconds(),
				HLLSeconds:       c.HLL.Seconds(),
				SkeletonSeconds:  c.Skeleton.Seconds(),
				EnumerateSeconds: c.Enumerate.Seconds(),
				Candidates:       c.Candidates,
				Graphs:           c.Graphs,
			})
		}
		rep.TopStacks = jsonGroups(groupBy(costs, func(c tricheck.JobCost) string { return c.Stack }), *topK)
		rep.TopTests = jsonGroups(groupBy(costs, func(c tricheck.JobCost) string { return c.Test }), *topK)
		if err := emitJSON("-", rep); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck top: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("tricheck top: %d tests × %d stacks, %d costed jobs, %s wall × %d workers (%s job wall time summed)\n\n",
		len(tests), len(stacks), len(costs), elapsed.Round(time.Millisecond), farmWorkers, total.Round(time.Millisecond))

	fmt.Println("── phase totals (share of wall × workers) ──")
	phase := func(name string, d time.Duration) {
		fmt.Printf("  %-12s %10s  %5.1f%%\n", name, d.Round(time.Microsecond), pct(d, capacity))
	}
	phase("hll", hll)
	phase("compile", compile)
	phase("skeleton", skeleton)
	phase("enumerate", enumerate)
	phase("other", total-hll-compile-skeleton-enumerate)
	phase("unattributed", unattributed)

	fmt.Printf("\n── top %d (test, stack) cells by attributed time ──\n", *topK)
	fmt.Printf("  %-28s %-26s %10s %10s %6s %9s %9s %8s %8s\n",
		"TEST", "STACK", "WORK", "TOTAL", "%", "HLL", "SKEL", "ENUM", "GRAPHS")
	for i, c := range costs {
		if i >= *topK {
			break
		}
		fmt.Printf("  %-28s %-26s %10s %10s %5.1f%% %9s %9s %8s %8d\n",
			clip(c.Test, 28), clip(c.Stack, 26), c.Work().Round(time.Microsecond), c.Total.Round(time.Microsecond), pct(c.Total, total),
			c.HLL.Round(time.Microsecond), c.Skeleton.Round(time.Microsecond),
			c.Enumerate.Round(time.Microsecond), c.Graphs)
	}

	fmt.Printf("\n── top %d stacks by attributed time ──\n", *topK)
	printGroup(groupBy(costs, func(c tricheck.JobCost) string { return c.Stack }), *topK, total)

	fmt.Printf("\n── top %d tests by attributed time ──\n", *topK)
	printGroup(groupBy(costs, func(c tricheck.JobCost) string { return c.Test }), *topK, total)
}

// topReport is the -json form of the hot-spot report (emitJSON encoder,
// shared with `coverage -coverage-out`).
type topReport struct {
	Tests          int                `json:"tests"`
	Stacks         int                `json:"stacks"`
	Jobs           int                `json:"jobs"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Phases         map[string]float64 `json:"phase_seconds"`
	Cells          []topCell          `json:"cells"`
	TopStacks      []topGroup         `json:"top_stacks"`
	TopTests       []topGroup         `json:"top_tests"`
}

// topCell is one machine-readable (test, stack) cost cell.
type topCell struct {
	Test             string  `json:"test"`
	Stack            string  `json:"stack"`
	TotalSeconds     float64 `json:"total_seconds"`
	HLLSeconds       float64 `json:"hll_seconds"`
	SkeletonSeconds  float64 `json:"skeleton_seconds"`
	EnumerateSeconds float64 `json:"enumerate_seconds"`
	Candidates       int     `json:"candidates"`
	Graphs           int     `json:"graphs"`
}

// topGroup is one machine-readable aggregated ranking row.
type topGroup struct {
	Name         string  `json:"name"`
	TotalSeconds float64 `json:"total_seconds"`
	Jobs         int     `json:"jobs"`
	Graphs       int     `json:"graphs"`
}

// jsonGroups projects the top K ranking rows into wire form.
func jsonGroups(groups []groupCost, k int) []topGroup {
	out := make([]topGroup, 0, k)
	for i, g := range groups {
		if i >= k {
			break
		}
		out = append(out, topGroup{Name: g.name, TotalSeconds: g.total.Seconds(), Jobs: g.jobs, Graphs: g.graphs})
	}
	return out
}

// groupCost is one aggregated ranking row.
type groupCost struct {
	name   string
	work   time.Duration // attributed phase time, the ranking key
	total  time.Duration
	jobs   int
	graphs int
}

func groupBy(costs []tricheck.JobCost, key func(tricheck.JobCost) string) []groupCost {
	byKey := map[string]*groupCost{}
	for _, c := range costs {
		k := key(c)
		g := byKey[k]
		if g == nil {
			g = &groupCost{name: k}
			byKey[k] = g
		}
		g.work += c.Work()
		g.total += c.Total
		g.jobs += c.Count
		g.graphs += c.Graphs
	}
	out := make([]groupCost, 0, len(byKey))
	for _, g := range byKey {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].work != out[j].work {
			return out[i].work > out[j].work
		}
		return out[i].name < out[j].name
	})
	return out
}

func printGroup(groups []groupCost, k int, total time.Duration) {
	fmt.Printf("  %-34s %10s %10s %6s %7s %10s\n", "NAME", "WORK", "TOTAL", "%", "JOBS", "GRAPHS")
	for i, g := range groups {
		if i >= k {
			break
		}
		fmt.Printf("  %-34s %10s %10s %5.1f%% %7d %10d\n",
			clip(g.name, 34), g.work.Round(time.Microsecond), g.total.Round(time.Microsecond), pct(g.total, total), g.jobs, g.graphs)
	}
}

func pct(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
