package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flowScope bounds the flow-sensitive analyzers to the library packages. cmd/
// binaries stitch configuration together and never sit on the training hot
// path, so holding them to the arena and span protocols would only generate
// noise.
const flowScope = "bnff/internal"

func inFlowScope(pass *Pass) bool { return pathWithin(pass.Pkg.ImportPath, flowScope) }

// arenaAcquire and arenaRelease name the tensor.Arena methods that hand out
// and take back pooled buffers.
var arenaAcquire = map[string]bool{"Get": true, "Floats": true, "Clone": true}
var arenaRelease = map[string]bool{"Put": true, "PutFloats": true, "Detach": true}

// Abstract states for one arena-obtained variable. Join is set union, so a
// variable that is released on one branch and not the other carries both
// bits at the merge — exactly the "leaks on the error path" shape.
const (
	arOwned    stateSet = 1 << iota // holds a live arena buffer
	arReleased                      // Put/PutFloats/Detach already ran
	arDeferred                      // a deferred release is registered
	arEscaped                       // returned, stored, or captured — ownership moved
)

// ArenaOwn enforces the arena ownership protocol flow-sensitively: every
// buffer obtained from tensor.Arena (Get, Floats, Clone) must reach exactly
// one of Put/PutFloats/Detach on every path through the function, unless
// ownership escapes first (returned to the caller, stored into a
// longer-lived structure, or captured by a closure that outlives the call). Releasing twice and using a buffer after releasing it are errors.
// Closures dispatched directly through parallel.Pool.Run/RunChunked borrow
// — not take — captured buffers, matching the dispatcher-carved-slab idiom.
var ArenaOwn = &Analyzer{
	Name: "arenaown",
	Doc: "require every tensor.Arena buffer (Get/Floats/Clone) to be released exactly once " +
		"(Put/PutFloats/Detach) on every path unless ownership escapes; flag leaks on early " +
		"returns, double releases, and uses after release",
	Run: runArenaOwn,
}

func runArenaOwn(pass *Pass) {
	if !inFlowScope(pass) {
		return
	}
	for _, f := range pass.Files() {
		for _, unit := range funcUnits(f) {
			analyzeArenaUnit(pass, unit)
		}
	}
}

func analyzeArenaUnit(pass *Pass, unit funcUnit) {
	cfg := buildCFG(unit.body)
	t := &arenaTracker{
		pass:     pass,
		unit:     unit,
		results:  namedResults(pass, unit.results),
		acquires: make(map[types.Object]token.Pos),
	}
	in := runFlow(cfg, t.transfer)
	t.report = true
	replayFlow(cfg, in, t.transfer)
	exit := in[cfg.exit]
	for _, obj := range t.order {
		if exit[obj]&arOwned != 0 {
			pass.Reportf(t.acquires[obj],
				"arena buffer %s can leave the function still owned: release it with Put/PutFloats or Detach on every path, including error returns",
				obj.Name())
		}
	}
}

type arenaTracker struct {
	pass     *Pass
	unit     funcUnit
	results  []types.Object
	acquires map[types.Object]token.Pos
	order    []types.Object // acquire order, for deterministic leak reports
	report   bool
}

func (t *arenaTracker) objOf(id *ast.Ident) types.Object {
	info := t.pass.TypesInfo()
	if info == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// transfer applies one node's effect to the state.
func (t *arenaTracker) transfer(n ast.Node, st flowState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.assign(n, st)
	case *ast.DeclStmt:
		t.decl(n, st)
	case *ast.DeferStmt:
		t.deferStmt(n, st)
	case *ast.ReturnStmt:
		t.ret(n, st)
	case *ast.ExprStmt:
		t.scan(n.X, st, false)
	case *ast.IncDecStmt:
		t.scan(n.X, st, false)
	case *ast.SendStmt:
		t.scan(n.Chan, st, false)
		t.scan(n.Value, st, true)
	case *ast.GoStmt:
		t.scan(n.Call, st, false)
	case ast.Expr:
		t.scan(n, st, false)
	case ast.Stmt:
		// Remaining simple statements (empty, etc.) have no effect.
	}
}

// assign handles acquires (v := arena.Get(...)), alias copies, stores, and
// kills, in evaluation order: RHS effects first, then LHS updates.
func (t *arenaTracker) assign(s *ast.AssignStmt, st flowState) {
	pairwise := len(s.Lhs) == len(s.Rhs)
	type acquire struct {
		obj types.Object
		pos token.Pos
	}
	var acquired []acquire
	for i, rhs := range s.Rhs {
		call, isCall := unparen(rhs).(*ast.CallExpr)
		if isCall && t.isAcquireCall(call) {
			t.scanCallOperands(call, st)
			if pairwise {
				if id, ok := unparen(s.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					if obj := t.objOf(id); obj != nil && declaredWithin(obj, t.unit.node) {
						acquired = append(acquired, acquire{obj, id.Pos()})
						continue
					}
				}
			}
			continue // result dropped or stored somewhere untrackable
		}
		// Copying a tracked variable creates an alias; ownership follows the
		// alias out of our sight, so the original quietly escapes.
		if id, ok := unparen(rhs).(*ast.Ident); ok {
			t.touch(id, st, true)
			continue
		}
		t.scan(rhs, st, false)
	}
	// LHS: kill tracked variables being overwritten by non-acquire values,
	// and scan index/field targets for uses.
	acquiredObjs := make(map[types.Object]bool, len(acquired))
	for _, a := range acquired {
		acquiredObjs[a.obj] = true
	}
	for _, lhs := range s.Lhs {
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if obj := t.objOf(id); obj != nil && !acquiredObjs[obj] {
				delete(st, obj)
			}
			continue
		}
		t.scan(lhs, st, false)
	}
	for _, a := range acquired {
		st[a.obj] = arOwned
		if _, seen := t.acquires[a.obj]; !seen {
			t.acquires[a.obj] = a.pos
			t.order = append(t.order, a.obj)
		}
	}
}

// decl handles `var v = arena.Get(...)` declarations.
func (t *arenaTracker) decl(s *ast.DeclStmt, st flowState) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		pairwise := len(vs.Names) == len(vs.Values)
		for i, v := range vs.Values {
			call, isCall := unparen(v).(*ast.CallExpr)
			if isCall && t.isAcquireCall(call) {
				t.scanCallOperands(call, st)
				if pairwise {
					if obj := t.objOf(vs.Names[i]); obj != nil && declaredWithin(obj, t.unit.node) {
						st[obj] = arOwned
						if _, seen := t.acquires[obj]; !seen {
							t.acquires[obj] = vs.Names[i].Pos()
							t.order = append(t.order, obj)
						}
					}
				}
				continue
			}
			t.scan(v, st, false)
		}
	}
}

// deferStmt registers deferred releases: `defer a.Put(v)` satisfies the
// exit obligation while leaving v usable until the function returns.
func (t *arenaTracker) deferStmt(s *ast.DeferStmt, st flowState) {
	if t.isReleaseCall(s.Call) {
		if obj := t.releaseOperands(s.Call, st); obj != nil {
			if t.isDetachCall(s.Call) {
				st[obj] = arEscaped
				return
			}
			if cur, tracked := st[obj]; tracked && cur&(arReleased|arDeferred) != 0 && t.report {
				t.pass.Reportf(s.Call.Pos(), "arena buffer %s already has a release registered: this deferred release is a double Put", obj.Name())
			}
			st[obj] = arDeferred
		}
		return
	}
	t.scan(s.Call, st, false)
}

// ret marks every tracked variable reachable from the return values (or the
// named results on a bare return) as escaped — the caller owns them now.
func (t *arenaTracker) ret(s *ast.ReturnStmt, st flowState) {
	if len(s.Results) == 0 {
		for _, obj := range t.results {
			if cur, ok := st[obj]; ok {
				if cur&arReleased != 0 && t.report {
					t.pass.Reportf(s.Pos(), "named result %s is returned after being released back to the arena", obj.Name())
				}
				st[obj] = arEscaped
			}
		}
		return
	}
	for _, res := range s.Results {
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				t.touch(id, st, true)
			}
			return true
		})
	}
}

// scan walks an expression, applying uses and escapes. esc marks a context
// where a directly mentioned tracked variable's value is embedded into
// something longer-lived.
func (t *arenaTracker) scan(e ast.Expr, st flowState, esc bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		t.touch(e, st, esc)
	case *ast.ParenExpr:
		t.scan(e.X, st, esc)
	case *ast.SelectorExpr:
		t.scan(e.X, st, false) // field read: uses the owner, moves nothing
	case *ast.IndexExpr:
		t.scan(e.X, st, false)
		t.scan(e.Index, st, false)
	case *ast.SliceExpr:
		t.scan(e.X, st, esc) // a reslice aliases the buffer; escape follows context
		t.scan(e.Low, st, false)
		t.scan(e.High, st, false)
		t.scan(e.Max, st, false)
	case *ast.StarExpr:
		t.scan(e.X, st, false)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			t.scan(e.X, st, true)
		} else {
			t.scan(e.X, st, esc)
		}
	case *ast.BinaryExpr:
		t.scan(e.X, st, false)
		t.scan(e.Y, st, false)
	case *ast.TypeAssertExpr:
		t.scan(e.X, st, esc)
	case *ast.KeyValueExpr:
		t.scan(e.Value, st, esc)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			t.scan(el, st, true) // literal elements outlive the expression
		}
	case *ast.CallExpr:
		t.call(e, st)
	case *ast.FuncLit:
		t.funcLit(e, st, true) // bare closure: captures escape
	}
}

// call classifies a call: release, acquire (result unused here), pool
// dispatch (borrowing captures), or an unknown callee (arguments are reads,
// not ownership transfers — the repo's helpers operate on buffers in place).
func (t *arenaTracker) call(e *ast.CallExpr, st flowState) {
	if t.isReleaseCall(e) {
		if obj := t.releaseOperands(e, st); obj != nil {
			if t.isDetachCall(e) {
				// Detach hands ownership to the caller's scope: the arena
				// forgets the buffer but the variable stays usable.
				st[obj] = arEscaped
				return
			}
			t.applyRelease(obj, e.Pos(), st)
		}
		return
	}
	if t.isAcquireCall(e) {
		t.scanCallOperands(e, st)
		return
	}
	if t.pass.isPoolRunCall(e) {
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			t.scan(sel.X, st, false)
		}
		for _, arg := range e.Args {
			if lit, ok := unparen(arg).(*ast.FuncLit); ok {
				t.funcLit(lit, st, false) // dispatched closure borrows captures
				continue
			}
			t.scan(arg, st, false)
		}
		return
	}
	t.scan(e.Fun, st, false)
	for _, arg := range e.Args {
		if lit, ok := unparen(arg).(*ast.FuncLit); ok {
			t.funcLit(lit, st, true)
			continue
		}
		t.scan(arg, st, false)
	}
}

// scanCallOperands applies use effects of an acquire call's receiver chain
// and arguments without treating the call result.
func (t *arenaTracker) scanCallOperands(e *ast.CallExpr, st flowState) {
	t.scan(e.Fun, st, false)
	for _, arg := range e.Args {
		t.scan(arg, st, false)
	}
}

// funcLit applies a closure's captures: each tracked variable read inside
// the literal is a use, and — unless the literal is dispatched directly
// through the pool — an escape, since the closure value may outlive the
// frame that owns the buffer.
func (t *arenaTracker) funcLit(lit *ast.FuncLit, st flowState, escapeCaptures bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := t.objOf(id)
		if obj == nil || declaredWithin(obj, lit) {
			return true
		}
		if _, tracked := st[obj]; tracked {
			t.touch(id, st, escapeCaptures)
		}
		return true
	})
}

// touch records a read of id: a use-after-release check, plus an escape when
// the context embeds the value into something longer-lived.
func (t *arenaTracker) touch(id *ast.Ident, st flowState, esc bool) {
	obj := t.objOf(id)
	if obj == nil {
		return
	}
	cur, tracked := st[obj]
	if !tracked {
		return
	}
	if cur&arReleased != 0 && t.report {
		t.pass.Reportf(id.Pos(), "use of %s after it was released back to the arena", id.Name)
	}
	if esc {
		st[obj] = arEscaped
	}
}

// applyRelease transitions obj to released, flagging double releases. A
// release of an untracked variable starts tracking it as released, so a
// later use of externally obtained scratch after handing it back is still
// caught.
func (t *arenaTracker) applyRelease(obj types.Object, pos token.Pos, st flowState) {
	if cur, tracked := st[obj]; tracked && cur&(arReleased|arDeferred) != 0 && t.report {
		t.pass.Reportf(pos, "arena buffer %s released twice", obj.Name())
	}
	st[obj] = arReleased
}

// isReleaseCall reports whether e is an arena release call (side-effect
// free, so callers decide how to scan the operands exactly once).
func (t *arenaTracker) isReleaseCall(e *ast.CallExpr) bool {
	sel, ok := e.Fun.(*ast.SelectorExpr)
	return ok && arenaRelease[sel.Sel.Name] && t.pass.recvTypeSuffix(sel.X, "/tensor.Arena")
}

func (t *arenaTracker) isDetachCall(e *ast.CallExpr) bool {
	sel, ok := e.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Detach"
}

// releaseOperands scans a release call's receiver chain and argument and
// returns the released identifier's object when the argument is a local
// variable the tracker can follow. Releases of fields, map entries, and
// call results are invisible to the tracker by design — the arena's own
// ownership checks cover those at run time.
func (t *arenaTracker) releaseOperands(e *ast.CallExpr, st flowState) types.Object {
	sel := e.Fun.(*ast.SelectorExpr)
	t.scan(sel.X, st, false)
	if len(e.Args) != 1 {
		for _, arg := range e.Args {
			t.scan(arg, st, false)
		}
		return nil
	}
	id, ok := unparen(e.Args[0]).(*ast.Ident)
	if !ok {
		t.scan(e.Args[0], st, false)
		return nil
	}
	obj := t.objOf(id)
	if obj == nil || !declaredWithin(obj, t.unit.node) {
		return nil
	}
	return obj
}

// isAcquireCall reports whether e obtains a buffer from a tensor.Arena.
func (t *arenaTracker) isAcquireCall(e *ast.CallExpr) bool {
	sel, ok := e.Fun.(*ast.SelectorExpr)
	return ok && arenaAcquire[sel.Sel.Name] && t.pass.recvTypeSuffix(sel.X, "/tensor.Arena")
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
