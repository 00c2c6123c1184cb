package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// runSet is a file of benchmark runs: each untraced run's end-to-end
// values grouped by workload, in file order, plus the provenance fields
// two sets must share to be compared.
type runSet struct {
	values map[string]map[string][]float64 // workload → metric → values
	env    map[string]map[string]any       // workload → provenance
}

// matchKeys are the provenance fields that must agree between the sets.
var matchKeys = []string{"nproc", "gomaxprocs", "go", "seconds"}

// readRunSet parses the concatenated output of benchmark runs: a
// {"meta": ...} line, then that run's result line.
func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, env: map[string]map[string]any{}}
	var meta map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var line struct {
			Meta    map[string]any    `json:"meta"`
			Correct *bool             `json:"correct"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // a run's other output
		}
		switch {
		case line.Meta != nil:
			meta = line.Meta
		case line.Correct != nil && meta != nil:
			w, _ := meta["workload"].(string)
			if traced, _ := meta["trace"].(bool); traced {
				continue
			}
			if !*line.Correct {
				return nil, fmt.Errorf("%s: a %s run failed its correctness check", path, w)
			}
			if rs.values[w] == nil {
				rs.values[w] = map[string][]float64{}
				rs.env[w] = meta
			}
			for name, m := range line.Metrics {
				rs.values[w][name] = append(rs.values[w][name], m.Value)
			}
			meta = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return rs, nil
}

// judgement is the comparison of one metric on one workload, parent
// set A against change set B.
type judgement struct {
	verdict string // "within bound", "regression" or "unresolved"
	gain    bool
	ratio   float64 // median B / median A
}

// judge applies the benchmark's rules. B regresses when its median is
// worse than A's by more than the bound; the comparison is unresolved
// when either set's spread (IQR over median) exceeds the bound, unless
// every B run beats every A run. setup_s is exempt from the spread rule:
// it is already the median of each run's own repeated set-ups, and only
// its median is held to its bound. A gain needs B to win at least nine
// tenths of the pairs (A[i], B[i]), ties counting for neither, and a
// median gap larger than A's interquartile range.
func judge(d metricDef, a, b []float64) judgement {
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	qa1, ma, qa3 := quartiles(a)
	_, mb, _ := quartiles(b)
	j := judgement{ratio: mb / ma}
	worse := (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) && !allBetter:
		j.verdict = "unresolved"
	case worse > d.Bound:
		j.verdict = "regression"
	default:
		j.verdict = "within bound"
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	j.gain = pairs > 0 && 10*wins >= 9*pairs && better(mb, ma) && math.Abs(mb-ma) > qa3-qa1
	return j
}

// compareFiles prints the comparison of two run sets and returns the
// exit code: 0 when every metric of every shared workload is within its
// bound, 3 when any regressed or is unresolved, 1 on unreadable input.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var names []string
	for name := range a.values {
		if b.values[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A\tbound\tverdict\tgain")
	code := 0
	for _, name := range names {
		for _, k := range matchKeys {
			if fmt.Sprint(a.env[name][k]) != fmt.Sprint(b.env[name][k]) {
				fmt.Fprintf(w, "note: %s: %s differs: %v vs %v\n", name, k, a.env[name][k], b.env[name][k])
			}
		}
		for _, d := range endToEnd {
			va, vb := a.values[name][d.Name], b.values[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			j := judge(d, va, vb)
			gain := ""
			if j.gain {
				gain = "gain"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4f\t%.2f\t%s\t%s\n", name, d.Name, summary(va), summary(vb), j.ratio, d.Bound, j.verdict, gain)
			if j.verdict != "within bound" {
				code = 3
			}
		}
	}
	tw.Flush()
	return code
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
