package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The golden tests load tiny fixture packages from testdata/src/<case>/ under
// virtual import paths (so path-scoped analyzers see the package they expect)
// and compare the surviving diagnostics against `// want "regexp"` comments:
// a want on line L demands a diagnostic on line L whose message matches the
// regexp, and every diagnostic must be demanded by a want. Suppressed
// fixtures carry //lint:ignore directives and no want — asserting the
// suppression path end to end.

// testLoader is shared across golden tests so the stdlib is type-checked
// once per test process.
var testLoader *Loader

func loaderFor(t *testing.T) *Loader {
	t.Helper()
	if testLoader != nil {
		return testLoader
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	testLoader, err = NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return testLoader
}

// loadFixture loads every .go file in testdata/src/<name> as one package
// with the given virtual import path.
func loadFixture(t *testing.T, name, importPath string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	pkg, err := loaderFor(t).LoadFiles(importPath, paths)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.TypeErr != nil {
		t.Fatalf("fixture %s must type-check: %v", name, pkg.TypeErr)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want (.*)$`)
var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// parseWants extracts the expectations from a fixture's comments.
func parseWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, a := range args {
					re, err := regexp.Compile(a[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, want{pos.Filename, pos.Line, re})
				}
			}
		}
	}
	return wants
}

// analyzerDiags filters a diagnostic list down to one analyzer. The
// out-of-scope tests use it so a fixture's //lint:ignore directives — which
// are (correctly) stale when the named analyzer is exempt at that path —
// don't fail assertions about the analyzer under test.
func analyzerDiags(diags []Diagnostic, name string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Analyzer == name {
			out = append(out, d)
		}
	}
	return out
}

// runGolden asserts the analyzer's post-suppression findings on a fixture
// exactly satisfy its want comments.
func runGolden(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, importPath)
	diags := RunAnalyzers(pkg, []*Analyzer{a})
	wants := parseWants(t, pkg)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Pos.Filename == w.file && d.Pos.Line == w.line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: want diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestPoolOnlyGolden(t *testing.T) {
	runGolden(t, PoolOnly, "poolonly", "bnff/internal/layers")
}

func TestPoolOnlyExemptInPoolPackage(t *testing.T) {
	// The same fixture loaded AS internal/parallel produces no findings: the
	// pool package is the one place allowed to spawn and join goroutines.
	pkg := loadFixture(t, "poolonly", "bnff/internal/parallel")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{PoolOnly}), PoolOnly.Name); len(diags) != 0 {
		t.Fatalf("poolonly must not fire inside internal/parallel, got %v", diags)
	}
}

func TestPoolOnlyExemptInObsPackage(t *testing.T) {
	// internal/obs is allowlisted: its tracer and registry must be safe to
	// update from replica goroutines without routing through a compute pool.
	pkg := loadFixture(t, "poolonly", "bnff/internal/obs")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{PoolOnly}), PoolOnly.Name); len(diags) != 0 {
		t.Fatalf("poolonly must not fire inside internal/obs, got %v", diags)
	}
}

func TestPoolOnlyExemptInDdpPackage(t *testing.T) {
	// internal/ddp is allowlisted: its sync-BN exchanger rendezvouses replicas
	// on a channel-published round. The same fixture under the ddp path is
	// silent.
	pkg := loadFixture(t, "poolonly", "bnff/internal/ddp")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{PoolOnly}), PoolOnly.Name); len(diags) != 0 {
		t.Fatalf("poolonly must not fire inside internal/ddp, got %v", diags)
	}
}

func TestPoolOnlyExemptInFleetPackage(t *testing.T) {
	// internal/fleet is allowlisted: the proxy daemon and probe loop own
	// their listener and ticker goroutines. The same fixture under the fleet
	// path is silent.
	pkg := loadFixture(t, "poolonly", "bnff/internal/fleet")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{PoolOnly}), PoolOnly.Name); len(diags) != 0 {
		t.Fatalf("poolonly must not fire inside internal/fleet, got %v", diags)
	}
}

// TestPoolOnlyScopePinned pins the concurrency allowlist exactly: adding a
// package to the sanctioned set is an API decision that must show up in this
// test, not slip in through a lint edit.
func TestPoolOnlyScopePinned(t *testing.T) {
	want := []string{
		"bnff/internal/parallel",
		"bnff/internal/serve",
		"bnff/internal/obs",
		"bnff/internal/ddp",
		"bnff/internal/fleet",
	}
	if len(concurrencyPkgs) != len(want) {
		t.Fatalf("concurrencyPkgs = %v, want exactly %v", concurrencyPkgs, want)
	}
	for i, pkg := range want {
		if concurrencyPkgs[i] != pkg {
			t.Fatalf("concurrencyPkgs[%d] = %q, want %q", i, concurrencyPkgs[i], pkg)
		}
	}
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, MapOrder, "maporder", "bnff/internal/graph")
}

func TestNoGlobalsGolden(t *testing.T) {
	runGolden(t, NoGlobals, "noglobals", "bnff/internal/layers")
}

func TestNoGlobalsInTensorScope(t *testing.T) {
	// internal/tensor entered the scope with the Arena: a package-level free
	// list would couple executors through shared process state, so the same
	// fixture loaded under the tensor path must produce the same findings.
	runGolden(t, NoGlobals, "noglobals", "bnff/internal/tensor")
}

func TestNoGlobalsOutOfScope(t *testing.T) {
	// Outside the hot-path packages the same declarations are legal.
	pkg := loadFixture(t, "noglobals", "bnff/internal/experiments")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{NoGlobals}), NoGlobals.Name); len(diags) != 0 {
		t.Fatalf("noglobals must only fire in its scoped packages, got %v", diags)
	}
}

func TestDetReduceGolden(t *testing.T) {
	runGolden(t, DetReduce, "detreduce", "bnff/internal/layers")
}

func TestDetReduceInDdpScope(t *testing.T) {
	// internal/ddp's replica-order folds joined the ordered-reduction scope:
	// the same fixture under the ddp path produces the same findings.
	runGolden(t, DetReduce, "detreduce", "bnff/internal/ddp")
}

func TestDetReduceOutOfScope(t *testing.T) {
	// Outside the scoped packages the same accumulation loops are legal.
	pkg := loadFixture(t, "detreduce", "bnff/internal/train")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{DetReduce}), DetReduce.Name); len(diags) != 0 {
		t.Fatalf("detreduce must only fire in its scoped packages, got %v", diags)
	}
}

func TestSeededRandGolden(t *testing.T) {
	runGolden(t, SeededRand, "seededrand", "bnff/internal/graph")
}

func TestSeededRandExemptUnderCmd(t *testing.T) {
	// cmd/ is fully exempt — tools seed the library explicitly, and timing
	// and logging their own work is their job. The same fixture under a cmd
	// path must therefore be silent.
	pkg := loadFixture(t, "seededrand", "bnff/cmd/bnff-fixture")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{SeededRand}), SeededRand.Name); len(diags) != 0 {
		t.Fatalf("seededrand must not fire under cmd/, got %v", diags)
	}
}

func TestSeededRandClockFileExemption(t *testing.T) {
	// Loaded as internal/obs, clock.go may read the wall clock (the injected
	// obs.WallClock site) but every other file in the package stays gated —
	// the want comment in tracer.go is the only expected finding.
	runGolden(t, SeededRand, "obsclock", "bnff/internal/obs")
}

func TestSeededRandClockExemptionIsPerPackage(t *testing.T) {
	// The same fixture under any other library path gets no exemption: both
	// files' wall-clock reads are findings.
	pkg := loadFixture(t, "obsclock", "bnff/internal/graph")
	diags := RunAnalyzers(pkg, []*Analyzer{SeededRand})
	if len(diags) != 3 {
		t.Fatalf("expected 3 findings (Now+Since in clock.go, Now in tracer.go) outside obs, got %d: %v", len(diags), diags)
	}
}

func TestArenaOwnGolden(t *testing.T) {
	runGolden(t, ArenaOwn, "arenaown", "bnff/internal/layers")
}

func TestArenaOwnExemptUnderCmd(t *testing.T) {
	// Tools under cmd/ allocate once at startup and exit; the ownership
	// discipline is a hot-loop contract, so the same fixture is silent there.
	pkg := loadFixture(t, "arenaown", "bnff/cmd/bnff-fixture")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{ArenaOwn}), ArenaOwn.Name); len(diags) != 0 {
		t.Fatalf("arenaown must not fire under cmd/, got %v", diags)
	}
}

func TestSpanPairGolden(t *testing.T) {
	runGolden(t, SpanPair, "spanpair", "bnff/internal/layers")
}

func TestSpanPairExemptInObsPackage(t *testing.T) {
	// internal/obs owns the tracer: its own plumbing opens and closes spans
	// in ways the intra-procedural analysis cannot follow, so it is exempt.
	pkg := loadFixture(t, "spanpair", "bnff/internal/obs")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{SpanPair}), SpanPair.Name); len(diags) != 0 {
		t.Fatalf("spanpair must not fire inside internal/obs, got %v", diags)
	}
}

func TestSpanPairInFleetScope(t *testing.T) {
	// internal/fleet is inside the flow-sensitive span scope (bnff/internal,
	// obs excepted): the same fixture under the fleet path produces the same
	// positive findings, and its //lint:ignore-suppressed case stays silent.
	runGolden(t, SpanPair, "spanpair", "bnff/internal/fleet")
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, HotAlloc, "hotalloc", "bnff/internal/layers")
}

func TestHotAllocExemptUnderCmd(t *testing.T) {
	pkg := loadFixture(t, "hotalloc", "bnff/cmd/bnff-fixture")
	if diags := analyzerDiags(RunAnalyzers(pkg, []*Analyzer{HotAlloc}), HotAlloc.Name); len(diags) != 0 {
		t.Fatalf("hotalloc must not fire under cmd/, got %v", diags)
	}
}

func TestStaleIgnoreGolden(t *testing.T) {
	// The stale-suppression check rides along with any analyzer run: dead
	// directives naming maporder (in the run) or an unknown analyzer are
	// findings; the live directive in the same fixture stays silent.
	runGolden(t, MapOrder, "staleignore", "bnff/internal/graph")
}

func TestStaleIgnoreSkipsAnalyzersOutsideRun(t *testing.T) {
	// A directive naming a registered analyzer that is NOT part of this run
	// must not be called stale — bnff-lint -only runs subsets, and a
	// directive is only provably dead when its analyzer actually ran.
	pkg := loadFixture(t, "maporder", "bnff/internal/graph")
	diags := RunAnalyzers(pkg, []*Analyzer{NoGlobals})
	for _, d := range diags {
		if d.Analyzer == StaleIgnoreName {
			t.Errorf("maporder directive flagged stale in a run without maporder: %s", d)
		}
	}
}

func TestDiagnosticFormat(t *testing.T) {
	pkg := loadFixture(t, "poolonly", "bnff/internal/layers")
	diags := RunAnalyzers(pkg, []*Analyzer{PoolOnly})
	if len(diags) == 0 {
		t.Fatal("expected findings")
	}
	// file:line: [analyzer] message — the contract the Makefile and CI grep.
	re := regexp.MustCompile(`^testdata/src/poolonly/[a-z_]+\.go:\d+: \[poolonly\] .+$`)
	for _, d := range diags {
		if !re.MatchString(d.String()) {
			t.Errorf("diagnostic %q does not match file:line: [analyzer] message", d.String())
		}
	}
	// Diagnostics must come back sorted for stable CI output.
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	}) {
		t.Error("diagnostics not sorted by file and line")
	}
}

func TestIgnoreRequiresReason(t *testing.T) {
	// A //lint:ignore without a reason is inert: the finding survives.
	pkg := loadFixture(t, "badignore", "bnff/internal/graph")
	diags := RunAnalyzers(pkg, []*Analyzer{MapOrder})
	if len(diags) != 1 {
		t.Fatalf("reasonless ignore must not suppress; got %d findings, want 1", len(diags))
	}
}

func TestPackageDirsSkipsTestdata(t *testing.T) {
	root := loaderFor(t).ModuleRoot
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("PackageDirs returned testdata dir %s", d)
		}
		if d == filepath.Join("internal", "analysis") {
			found = true
		}
	}
	if !found {
		t.Error("PackageDirs did not find internal/analysis")
	}
}

// TestModuleIsLintClean runs every analyzer over every package in the
// module — the same sweep cmd/bnff-lint performs — and demands zero
// findings. This keeps `go test ./...` (tier-1) enforcing the contracts even
// where `make lint` is not wired in.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := loaderFor(t)
	dirs, err := PackageDirs(l.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.TypeErr != nil {
			t.Errorf("type-checking %s: %v", pkg.ImportPath, pkg.TypeErr)
		}
		for _, d := range RunAnalyzers(pkg, All()) {
			t.Errorf("lint finding: %s", d)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, a := range All() {
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) did not return the registered analyzer", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown name must return nil")
	}
	if len(All()) < 5 {
		t.Errorf("expected at least 5 analyzers, got %d", len(All()))
	}
}
