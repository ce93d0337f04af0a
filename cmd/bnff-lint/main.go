// Command bnff-lint runs the repo's static-analysis suite (internal/analysis)
// over the module and reports contract violations as
//
//	file:line: [analyzer] message
//
// with a non-zero exit status when any finding survives suppression. Findings
// are suppressed inline with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory.
//
// Usage:
//
//	bnff-lint [-list] [-analyzers name,name] [-json] [packages]
//
// The package arguments accept the go-tool spelling: "./..." (the default)
// lints every package in the module; an explicit relative directory lints
// just that package. Test files are not linted — the determinism contracts
// govern shipped code, and _test.go files legitimately use goroutines and
// channels to exercise it.
//
// -json switches the findings to newline-delimited JSON objects
// ({"file","line","col","analyzer","message"}), one per finding, for
// machine consumers; the exit status is unchanged. Packages load and
// type-check one at a time, in the order the patterns name them, and
// diagnostics print in that order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bnff/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as newline-delimited JSON objects")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bnff-lint [-list] [-analyzers name,name] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *names != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*names, ",") {
			a := analysis.Lookup(strings.TrimSpace(name))
			if a == nil {
				fatalf("unknown analyzer %q (try -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatalf("%v", err)
	}

	dirs, err := resolvePatterns(root, cwd, flag.Args())
	if err != nil {
		fatalf("%v", err)
	}

	// Every package loads before any is analyzed, so a load error prints no
	// findings.
	pkgs := make([]*analysis.Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = loader.Load(dir); err != nil {
			fatalf("analysis: loading %s: %v", dir, err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	findings := 0
	for _, pkg := range pkgs {
		if pkg.TypeErr != nil {
			// Analyzers degrade without full type information; tell the user
			// so a surprising silence is explainable.
			fmt.Fprintf(os.Stderr, "bnff-lint: warning: type-checking %s: %v\n", pkg.ImportPath, pkg.TypeErr)
		}
		for _, d := range analysis.RunAnalyzers(pkg, analyzers) {
			if *jsonOut {
				if err := enc.Encode(jsonFinding{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				}); err != nil {
					fatalf("%v", err)
				}
			} else {
				fmt.Println(d.String())
			}
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "bnff-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// jsonFinding is the -json wire format: one object per line, stable field
// names, module-relative file paths — the shape the CI problem matcher and
// any dashboard ingestion parse.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// resolvePatterns maps go-tool-style package arguments onto module-relative
// directories. Supported forms: "./..." and "..." (whole module), "./dir",
// "dir", and "./dir/..." (subtree).
func resolvePatterns(root, cwd string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, arg := range args {
		recursive := false
		if arg == "..." || strings.HasSuffix(arg, "/...") {
			recursive = true
			arg = strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
			if arg == "" {
				arg = "."
			}
		}
		abs := filepath.Join(cwd, arg)
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package pattern %q escapes the module at %s", arg, root)
		}
		if !recursive {
			add(rel)
			continue
		}
		dirs, err := analysis.PackageDirs(abs)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			add(filepath.Join(rel, d))
		}
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bnff-lint: "+format+"\n", args...)
	os.Exit(2)
}
