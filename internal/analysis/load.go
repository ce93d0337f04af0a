package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Package is one loaded, parsed, and (best-effort) type-checked package,
// ready to be analyzed.
type Package struct {
	// ImportPath is the slash-separated import path ("bnff/internal/layers").
	// Analyzers use it to scope themselves to the packages their contract
	// covers. Test fixtures load with a virtual import path so path-scoped
	// analyzers can be exercised from testdata.
	ImportPath string

	// Dir is the directory the files were read from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File

	// Info holds type information. When type-checking fails it still holds
	// whatever the checker could resolve, and TypeErr records the first
	// error; analyzers must tolerate missing entries.
	Info    *types.Info
	Types   *types.Package
	TypeErr error
}

// A Loader loads module packages for analysis, sharing one file set and one
// dependency importer (and its cache) across every package it loads.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	imp  *srcImporter
}

// NewLoader returns a loader rooted at moduleRoot. The module path is read
// from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	modulePath, err := modulePathOf(moduleRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		fset:       fset,
		imp:        newSrcImporter(fset, moduleRoot, modulePath),
	}, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

func modulePathOf(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// PackageDirs returns every directory under root (inclusive) that contains
// at least one non-test .go file, skipping hidden directories, testdata
// trees, and underscore-prefixed directories — the same exclusions the go
// tool applies. Paths come back sorted, relative to root ("." for the root
// itself).
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Load parses and type-checks the package in the directory relDir (relative
// to the module root). Only non-test files are loaded: the contracts the
// analyzers enforce govern shipped code, while _test.go files are free to
// use goroutines and channels to exercise it.
func (l *Loader) Load(relDir string) (*Package, error) {
	importPath, dir, files, err := l.parseDir(relDir)
	if err != nil {
		return nil, err
	}
	return l.check(importPath, dir, files), nil
}

// parseDir reads and parses the non-test files of one package directory
// that build on this platform — build constraints and _GOOS/_GOARCH suffixes
// apply, as for the go tool — without type-checking them.
func (l *Loader) parseDir(relDir string) (importPath, dir string, files []*ast.File, err error) {
	dir = filepath.Join(l.ModuleRoot, relDir)
	importPath = l.ModulePath
	if relDir != "." {
		importPath = l.ModulePath + "/" + filepath.ToSlash(relDir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return "", "", nil, fmt.Errorf("analysis: %w", err)
		} else if !ok {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", "", nil, err
		}
		// Record positions with module-root-relative filenames so
		// diagnostics print stable, clickable paths.
		relName := filepath.ToSlash(filepath.Join(relDir, name))
		f, err := parser.ParseFile(l.fset, relName, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return "", "", nil, fmt.Errorf("analysis: parsing %s: %w", relName, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return "", "", nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return importPath, dir, files, nil
}

// LoadFiles parses the given .go files as one package with a caller-chosen
// import path. The test harness uses it to load fixture packages from
// testdata under virtual module paths.
func (l *Loader) LoadFiles(importPath string, paths []string) (*Package, error) {
	var files []*ast.File
	dir := ""
	for _, p := range paths {
		f, err := parser.ParseFile(l.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		dir = filepath.Dir(p)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no files given for %s", importPath)
	}
	return l.check(importPath, dir, files), nil
}

// check type-checks best-effort: on error the Package still carries partial
// type information and records the first error, so analyzers can degrade
// instead of the whole lint run dying on one broken file.
func (l *Loader) check(importPath, dir string, files []*ast.File) *Package {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer:    l.imp,
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if firstErr == nil {
		firstErr = err
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Info:       info,
		Types:      tpkg,
		TypeErr:    firstErr,
	}
}
