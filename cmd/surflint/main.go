// Command surflint runs the surfstitch static-analysis suite: four
// domain-aware Go analyzers that machine-check the invariants the
// synthesis pipeline depends on (reproducible RNG stream derivation, no
// dropped first-party errors, no panics on library APIs, no struct field
// accessed both atomically and plainly). Checks go vet already performs —
// copied locks, leaked context cancel funcs — are left to go vet.
//
// Usage:
//
//	surflint ./...                     # whole module (the CI gate)
//	surflint ./internal/mc ./cmd/...   # selected packages
//	surflint -only rngstream,errdrop ./...
//	surflint -list                     # describe the suite
//
// Exit status: 0 clean, 1 findings, 2 usage error, 3 load/internal error.
//
// Findings can be suppressed at the offending line (or the line above)
// with an explicit, justified marker:
//
//	//surflint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; a bare marker is a hard error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"surfstitch/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("surflint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "describe the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: surflint [-only a,b] [-list] <packages>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "surflint:", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "surflint:", err)
		return 3
	}
	mod, err := lint.LoadModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surflint:", err)
		return 3
	}
	pkgs, err := mod.Match(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "surflint:", err)
		return 2
	}
	findings, err := lint.Run(mod, analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surflint:", err)
		return 3
	}
	for _, f := range findings {
		pos := f.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "surflint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
