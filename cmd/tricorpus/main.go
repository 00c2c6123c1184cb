// Command tricorpus inspects and maintains on-disk litmus corpora in
// the herd C litmus format.
//
// Usage:
//
//	tricorpus export -dir DIR [-suite paper|extended|all] [-family NAME]
//	tricorpus ls     -dir DIR [-family NAME] [-v]
//	tricorpus show   -dir DIR -name TEST
//	tricorpus verify -dir DIR [-profile PREFIX]
//
// export writes generator suites to DIR as <family>/<name>.litmus
// files. ls lists the corpus (with fingerprints under -v). show prints
// one test's stored file and its fingerprint. verify checks every file
// round-trips (parse → emit → parse is a fixed point) and that canonical
// fingerprints are stable — the invariant the verification farm's memo
// cache relies on; -profile PREFIX captures cpu/heap pprof profiles of
// the run into PREFIX.{cpu,mem}.pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tricheck"
	"tricheck/internal/corpus"
	"tricheck/internal/litmus"
	"tricheck/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "export":
		cmdExport(args)
	case "ls":
		cmdLs(args)
	case "show":
		cmdShow(args)
	case "verify":
		cmdVerify(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tricorpus export -dir DIR [-suite paper|extended|all] [-family NAME]
  tricorpus ls     -dir DIR [-family NAME] [-v]
  tricorpus show   -dir DIR -name TEST
  tricorpus verify -dir DIR [-profile PREFIX]`)
	os.Exit(2)
}

// onFatal runs before a fatal exit; cmdVerify uses it to flush pprof
// profiles so even a failed profiled run leaves usable profiles.
var onFatal func()

func fatal(err error) {
	if onFatal != nil {
		onFatal()
	}
	fmt.Fprintf(os.Stderr, "tricorpus: %v\n", err)
	os.Exit(1)
}

func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory to write")
	suite := fs.String("suite", "paper", "which generator suite: paper, extended or all")
	family := fs.String("family", "", "restrict to one litmus family")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}
	var shapes []*litmus.Shape
	switch *suite {
	case "paper":
		shapes = litmus.PaperShapes()
	case "extended":
		shapes = litmus.ExtendedShapes()
	case "all":
		shapes = litmus.AllShapes()
	default:
		fatal(fmt.Errorf("unknown suite %q", *suite))
	}
	var tests []*tricheck.Test
	for _, s := range shapes {
		if *family != "" && s.Name != *family {
			continue
		}
		tests = append(tests, s.Generate()...)
	}
	if len(tests) == 0 {
		fatal(fmt.Errorf("no tests selected (suite=%s family=%q)", *suite, *family))
	}
	n, err := tricheck.ExportCorpus(*dir, tests)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("exported %d tests to %s\n", n, *dir)
}

func loadCorpus(dir string) *tricheck.Corpus {
	if dir == "" {
		usage()
	}
	c, err := tricheck.LoadCorpus(dir)
	if err != nil {
		fatal(err)
	}
	return c
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	family := fs.String("family", "", "restrict to one family")
	verbose := fs.Bool("v", false, "show fingerprints and paths")
	fs.Parse(args)
	c := loadCorpus(*dir)
	writeListing(os.Stdout, os.Stderr, c, *family, *verbose)
}

// writeListing renders the ls output deterministically: entries sorted
// by (family, name) regardless of on-disk layout, with the per-family
// tallies in sorted family order.
func writeListing(w, summary io.Writer, c *tricheck.Corpus, family string, verbose bool) {
	entries := make([]*tricheck.CorpusEntry, 0, len(c.Entries))
	for _, e := range c.Entries {
		if family != "" && e.Family != family {
			continue
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Family != entries[j].Family {
			return entries[i].Family < entries[j].Family
		}
		return entries[i].Name < entries[j].Name
	})
	byFam := map[string]int{}
	for _, e := range entries {
		byFam[e.Family]++
		if verbose {
			fmt.Fprintf(w, "%-40s %s %s\n", e.Name, e.Test.Fingerprint(), e.Path)
		} else {
			fmt.Fprintln(w, e.Name)
		}
	}
	fmt.Fprintf(summary, "%d tests in %d families:", c.Len(), len(c.Families()))
	for _, f := range c.Families() {
		if n := byFam[f]; n > 0 {
			fmt.Fprintf(summary, " %s=%d", f, n)
		}
	}
	fmt.Fprintln(summary)
}

func cmdShow(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	name := fs.String("name", "", "test name")
	fs.Parse(args)
	c := loadCorpus(*dir)
	if *name == "" {
		usage()
	}
	e := c.Lookup(*name)
	if e == nil {
		fatal(fmt.Errorf("no test %q in %s", *name, *dir))
	}
	data, err := os.ReadFile(filepath.Join(c.Dir, e.Path))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("── %s (%s, family %s)\n%s\n", e.Name, e.Path, e.Family, data)
	fmt.Printf("── fingerprint %s\n", e.Test.Fingerprint())
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	profile := fs.String("profile", "", "write cpu/heap pprof profiles to PREFIX.{cpu,mem}.pprof")
	fs.Parse(args)
	psess, err := prof.Begin(*profile)
	if err != nil {
		fatal(err)
	}
	// Session.Stop is idempotent: the fatal hook, the explicit stop after
	// the loop and any future exit path can all call it safely.
	stopProfOnce := func() {
		if err := psess.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "tricorpus: finalizing profiles: %v\n", err)
		}
	}
	onFatal = stopProfOnce
	defer func() { onFatal = nil }()
	c := loadCorpus(*dir)
	bad := 0
	for _, e := range c.Entries {
		first, err := corpus.EmitString(e.Test)
		if err != nil {
			fmt.Printf("FAIL %s: emit: %v\n", e.Path, err)
			bad++
			continue
		}
		reparsed, err := corpus.ParseString(first)
		if err != nil {
			fmt.Printf("FAIL %s: re-parse: %v\n", e.Path, err)
			bad++
			continue
		}
		second, err := corpus.EmitString(reparsed)
		if err != nil {
			fmt.Printf("FAIL %s: re-emit: %v\n", e.Path, err)
			bad++
			continue
		}
		if first != second {
			fmt.Printf("FAIL %s: emit/parse/emit is not a fixed point\n", e.Path)
			bad++
			continue
		}
		if e.Test.Fingerprint() != reparsed.Fingerprint() {
			fmt.Printf("FAIL %s: fingerprint unstable across round trip\n", e.Path)
			bad++
		}
	}
	// Finalize profiles before any exit path so partial runs still profile.
	stopProfOnce()
	if bad > 0 {
		fatal(fmt.Errorf("%d of %d tests failed verification", bad, c.Len()))
	}
	fmt.Printf("ok: %d tests round-trip with stable fingerprints\n", c.Len())
}
