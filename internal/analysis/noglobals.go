package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// noGlobalsScope lists the packages where package-level mutable state is
// banned: the hot-path packages whose behavior must be a pure function of
// the executor that owns them. The long-gone process-global worker-count
// setting — which let one executor's configuration leak into another's
// dispatch — is exactly the regression this analyzer locks out.
// internal/tensor joined when it grew the Arena: a process-wide shared
// free-list would silently couple executors (and break the per-executor
// determinism story), so arenas must stay instance state of the executor
// that owns them.
var noGlobalsScope = []string{
	"bnff/internal/layers",
	"bnff/internal/kernels",
	"bnff/internal/core",
	"bnff/internal/parallel",
	"bnff/internal/tensor",
}

// NoGlobals forbids new package-level `var` declarations of non-error type
// in the hot-path packages. Sentinel error values are allowed (they are
// write-once by convention), as is the blank identifier (compile-time
// interface assertions). Everything else — lookup tables included — needs an
// explicit //lint:ignore with a justification, so mutable process state can
// never slip back in silently.
var NoGlobals = &Analyzer{
	Name: "noglobals",
	Doc: "forbid package-level mutable state (non-error var declarations) in internal/{layers,kernels,core,parallel,tensor}; " +
		"configuration must thread through executor construction options",
	Run: runNoGlobals,
}

func runNoGlobals(pass *Pass) {
	inScope := false
	for _, p := range noGlobalsScope {
		if pathWithin(pass.Pkg.ImportPath, p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" || pass.isErrorVar(name) {
						continue
					}
					pass.Reportf(name.Pos(), "package-level mutable state %q: thread configuration through executor options (core.WithWorkers and friends), not process globals", name.Name)
				}
			}
		}
	}
}

// isErrorVar reports whether the declared identifier has type error — the
// sentinel-error idiom noglobals permits.
func (p *Pass) isErrorVar(ident *ast.Ident) bool {
	info := p.TypesInfo()
	if info == nil {
		return false
	}
	obj, ok := info.Defs[ident]
	if !ok || obj == nil {
		return false
	}
	return types.Identical(obj.Type(), types.Universe.Lookup("error").Type())
}
