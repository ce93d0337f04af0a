package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// srcImporter resolves imports from source so the analyzers get full type
// information without golang.org/x/tools and without compiled export data.
// Standard-library paths resolve through go/build against GOROOT;
// module-local paths (the bnff module is zero-dependency, so those two cases
// are exhaustive) map directly onto directories under the module root.
// Packages are type-checked once and cached for the life of the importer;
// a nil entry marks a package in progress, so an import cycle is an error.
// Not safe for concurrent use: the loader type-checks one package at a time.
type srcImporter struct {
	fset       *token.FileSet
	ctx        build.Context
	moduleRoot string
	modulePath string

	pkgs map[string]*types.Package
}

func newSrcImporter(fset *token.FileSet, moduleRoot, modulePath string) *srcImporter {
	ctx := build.Default
	// Pure-Go view of every import: cgo-backed files would need a C
	// toolchain, and all packages this module touches have non-cgo
	// fallbacks.
	ctx.CgoEnabled = false
	return &srcImporter{
		fset:       fset,
		ctx:        ctx,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		pkgs:       make(map[string]*types.Package),
	}
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return pkg, nil
	}
	im.pkgs[path] = nil // in-progress marker for cycle detection
	pkg, err := im.load(path)
	if err != nil {
		delete(im.pkgs, path)
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

func (im *srcImporter) load(path string) (*types.Package, error) {
	var bp *build.Package
	var err error
	if pathWithin(path, im.modulePath) {
		rel := strings.TrimPrefix(path, im.modulePath)
		bp, err = im.ctx.ImportDir(filepath.Join(im.moduleRoot, filepath.FromSlash(rel)), 0)
	} else {
		bp, err = im.ctx.Import(path, im.moduleRoot, 0)
		if err != nil {
			// The standard library vendors its own external dependencies
			// (e.g. crypto/tls → golang.org/x/crypto/...) under
			// GOROOT/src/vendor; go/build only applies that vendor tree when
			// the importing directory is itself inside GOROOT, which this
			// flat importer doesn't track. Fall back to it explicitly.
			vdir := filepath.Join(im.ctx.GOROOT, "src", "vendor", filepath.FromSlash(path))
			if vbp, verr := im.ctx.ImportDir(vdir, 0); verr == nil {
				bp, err = vbp, nil
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving import %q: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		// Imported packages are type-checked for their API only, so skip
		// comments and object resolution for speed.
		f, err := parser.ParseFile(im.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing dependency %q: %w", path, err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im, FakeImportC: true}
	pkg, err := conf.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking dependency %q: %w", path, err)
	}
	return pkg, nil
}
