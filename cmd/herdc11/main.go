// Command herdc11 evaluates a litmus test under the C11 axiomatic memory
// model (toolflow step 1 — the role Herd's C11 model plays in the paper)
// and prints the allowed and forbidden final states.
//
// Usage:
//
//	herdc11 -test 'wrc[rlx,rlx,rel,acq,rlx]'
//	herdc11 -file t.litmus   # one test in herd's C .litmus format
//	herdc11 -shape mp        # evaluate every variant, print verdict counts
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tricheck"
	"tricheck/internal/c11"
	"tricheck/internal/corpus"
	"tricheck/internal/litmus"
)

func main() {
	testName := flag.String("test", "", "one variant, e.g. 'wrc[rlx,rlx,rel,acq,rlx]'")
	shapeName := flag.String("shape", "", "evaluate every variant of a shape")
	file := flag.String("file", "", "read one test from a herd C .litmus file (as tricorpus export writes)")
	flag.Parse()

	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "herdc11: %v\n", err)
			os.Exit(2)
		}
		t, err := corpus.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "herdc11: %v\n", err)
			os.Exit(2)
		}
		evaluateOne(t)
	case *testName != "":
		t, err := litmus.ParseVariantName(*testName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "herdc11: %v\n", err)
			os.Exit(2)
		}
		evaluateOne(t)
	case *shapeName != "":
		s := tricheck.ShapeByName(*shapeName)
		if s == nil {
			fmt.Fprintf(os.Stderr, "herdc11: unknown shape %q\n", *shapeName)
			os.Exit(2)
		}
		forbidden := 0
		for _, t := range s.Generate() {
			res, err := c11.Evaluate(t.Prog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "herdc11: %s: %v\n", t.Name, err)
				os.Exit(1)
			}
			if !res.Allowed[t.Specified] {
				forbidden++
				fmt.Printf("forbidden: %s\n", t.Name)
			}
		}
		fmt.Printf("%s: interesting outcome forbidden in %d of %d variants\n",
			s.Name, forbidden, s.Variants())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// evaluateOne runs the C11 model on one test and prints every outcome.
func evaluateOne(t *litmus.Test) {
	res, err := c11.Evaluate(t.Prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "herdc11: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s", t.Name, t.Prog.String())
	if res.Racy {
		fmt.Println("RACY: program has undefined behaviour; all outcomes allowed")
	}
	var outs []string
	for o := range res.All {
		outs = append(outs, string(o))
	}
	sort.Strings(outs)
	for _, o := range outs {
		verdict := "forbidden"
		if res.Allowed[tricheck.Outcome(o)] {
			verdict = "allowed"
		}
		marker := "  "
		if tricheck.Outcome(o) == t.Specified {
			marker = "* "
		}
		fmt.Printf("%s%-9s %s\n", marker, verdict, o)
	}
	fmt.Printf("(%d candidate executions, %d C11-consistent; * = the test's interesting outcome)\n",
		res.Candidates, res.Consistent)
}
