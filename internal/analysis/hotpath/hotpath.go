// Package hotpath implements the bpvet analyzer that turns the repo's
// AllocsPerRun runtime guards into compile-time facts.
//
// A function marked //bpvet:hotpath is a simulation inner-loop: the cpu
// loops, the predictors' predict/update paths, the event ring, the
// key-rotation guards. Inside it (and inside every same-package
// function it statically reaches) the analyzer bans the constructs that
// heap-allocate or would wreck the PR 5 inline budgets:
//
//   - make / new / append / &T{} / slice and map literals
//   - map access (index, range, delete) — hashing plus potential growth
//   - channel operations, select, go, defer
//   - string concatenation and string<->[]byte/[]rune conversions
//   - boxing a concrete value into an interface (call args,
//     assignments, returns, conversions)
//   - function literals anywhere but direct call arguments (a closure
//     passed straight to a call stays inlinable / non-escaping; one
//     stored in a variable is an allocation the inliner won't save)
//   - method values (they capture the receiver)
//
// Plain struct/array value literals, builtin len/cap/copy/min/max,
// interface method dispatch, and calls through func values are fine —
// none of them allocate.
//
// Cross-package static callees must themselves be //bpvet:hotpath or
// //bpvet:coldinit; the runner analyzes packages in dependency order
// and shares the marks through the fact store. //bpvet:coldinit
// exempts a function's body: it is reachable from hot code but runs
// only outside the measured steady state (lazy per-thread state), and
// the runtime guards remain its safety net.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xorbp/internal/analysis"
)

// name is the analyzer's identity in diagnostics and fact keys.
const name = "hotpath"

// Analyzer is the zero-allocation hot-path checker.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "ban allocation, interface boxing, map access, and escaping closures in //bpvet:hotpath functions",
	Run:  run,
}

// allowedStdlib are the non-module packages hot code may call into:
// audited pure-computation packages that never allocate.
var allowedStdlib = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// allowedBuiltins never allocate (panic is a termination path, not
// steady state).
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "min": true, "max": true,
	"panic": true, "recover": true, "real": true, "imag": true,
	"complex": true, "print": true, "println": true,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, decls: make(map[*types.Func]*ast.FuncDecl), visited: make(map[*ast.FuncDecl]bool)}

	// Index declarations and export marks first, so same-package calls
	// between hot functions resolve no matter the file order and other
	// packages can verify cross-package callees.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				c.decls[obj] = fd
			}
			if m := pass.Directives.Mark(fd); m != nil {
				pass.Facts.Set(name, pass.Path+"."+analysis.DeclKey(pass.Info, fd), m.Verb)
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if m := pass.Directives.Mark(fd); m != nil && m.Verb == analysis.VerbHotpath {
				c.checkFunc(fd, fd.Name.Name)
			}
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*ast.FuncDecl]bool
}

// checkFunc checks one function body in hot context. origin names the
// //bpvet:hotpath root for diagnostics when fd was reached indirectly.
func (c *checker) checkFunc(fd *ast.FuncDecl, origin string) {
	if c.visited[fd] || fd.Body == nil {
		return
	}
	c.visited[fd] = true
	where := "in hotpath " + fd.Name.Name
	if origin != fd.Name.Name {
		where = "in " + fd.Name.Name + " (reached from hotpath " + origin + ")"
	}
	var sig *types.Signature
	if obj, ok := c.pass.Info.Defs[fd.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}
	c.walkBody(fd.Body, sig, where, origin)
}

// walkBody walks one function (or function-literal) body. sig is the
// enclosing signature, for return-statement boxing checks.
func (c *checker) walkBody(body *ast.BlockStmt, sig *types.Signature, where, origin string) {
	ast.Inspect(body, func(n ast.Node) bool {
		return c.visitExpr(n, sig, where, origin)
	})
}

// visitExpr handles one node of a hot body. Returning false prunes
// children (calls and function literals route their operands manually).
func (c *checker) visitExpr(n ast.Node, sig *types.Signature, where, origin string) bool {
	info := c.pass.Info
	switch n := n.(type) {
	case *ast.CallExpr:
		c.checkCall(n, where, origin)
		// Visit operands manually: a function literal passed directly
		// to a call (or invoked in place) is the sanctioned closure
		// form — its body is walked as hot code without the escape
		// diagnostic a free-standing literal gets below. The callee
		// selector itself is skipped (a method *call* is not a method
		// *value*); only its receiver expression is walked.
		fun := analysis.Unparen(n.Fun)
		switch f := fun.(type) {
		case *ast.FuncLit:
			lsig, _ := info.Types[f].Type.(*types.Signature)
			c.walkBody(f.Body, lsig, where, origin)
		case *ast.SelectorExpr:
			ast.Inspect(f.X, func(m ast.Node) bool {
				return c.visitExpr(m, sig, where, origin)
			})
		case *ast.Ident:
			// nothing to recurse into
		default:
			ast.Inspect(fun, func(m ast.Node) bool {
				return c.visitExpr(m, sig, where, origin)
			})
		}
		for _, e := range n.Args {
			if lit, ok := analysis.Unparen(e).(*ast.FuncLit); ok {
				lsig, _ := info.Types[lit].Type.(*types.Signature)
				c.walkBody(lit.Body, lsig, where, origin)
			} else {
				ast.Inspect(e, func(m ast.Node) bool {
					return c.visitExpr(m, sig, where, origin)
				})
			}
		}
		return false
	case *ast.FuncLit:
		c.report(n.Pos(), "function literal escapes (assigned or returned, not passed directly to a call): closure allocation %s; hoist it to a named function", where)
		lsig, _ := info.Types[n].Type.(*types.Signature)
		c.walkBody(n.Body, lsig, where, origin)
		return false
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := analysis.Unparen(n.X).(*ast.CompositeLit); ok {
				c.report(n.Pos(), "&composite literal heap-allocates %s", where)
			}
		}
		if n.Op == token.ARROW {
			c.report(n.Pos(), "channel receive %s: hot loops must not synchronize", where)
		}
	case *ast.CompositeLit:
		if t, ok := info.Types[n]; ok {
			switch t.Type.Underlying().(type) {
			case *types.Slice:
				c.report(n.Pos(), "slice literal allocates %s; reuse a preallocated buffer", where)
			case *types.Map:
				c.report(n.Pos(), "map literal allocates %s", where)
			}
		}
	case *ast.IndexExpr:
		if t, ok := info.Types[n.X]; ok {
			if _, isMap := t.Type.Underlying().(*types.Map); isMap {
				c.report(n.Pos(), "map access %s: map lookups hash and may grow; use a dense slice keyed by index", where)
			}
		}
	case *ast.RangeStmt:
		if t, ok := info.Types[n.X]; ok {
			if _, isMap := t.Type.Underlying().(*types.Map); isMap {
				c.report(n.Pos(), "map range %s: iteration order is randomized and lookups hash; use a dense slice", where)
			}
		}
	case *ast.SendStmt:
		c.report(n.Pos(), "channel send %s: hot loops must not synchronize", where)
	case *ast.SelectStmt:
		c.report(n.Pos(), "select %s: hot loops must not synchronize", where)
	case *ast.GoStmt:
		c.report(n.Pos(), "go statement %s: spawning goroutines allocates", where)
	case *ast.DeferStmt:
		c.report(n.Pos(), "defer %s: deferred calls are not free on the steady-state path", where)
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t, ok := info.Types[n]; ok && t.Value == nil {
				if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.report(n.Pos(), "string concatenation allocates %s", where)
				}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			c.report(n.Pos(), "method value captures its receiver (closure allocation) %s", where)
		}
	case *ast.ReturnStmt:
		if sig != nil && sig.Results() != nil && len(n.Results) == sig.Results().Len() {
			for i, e := range n.Results {
				c.checkBox(e, sig.Results().At(i).Type(), "returning", where)
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				lt, ok := info.Types[lhs]
				if !ok {
					if id, isIdent := lhs.(*ast.Ident); isIdent {
						if obj := info.Defs[id]; obj != nil {
							c.checkBox(n.Rhs[i], obj.Type(), "assigning", where)
						}
					}
					continue
				}
				c.checkBox(n.Rhs[i], lt.Type, "assigning", where)
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			if t, ok := info.Types[n.Type]; ok {
				for _, v := range n.Values {
					c.checkBox(v, t.Type, "assigning", where)
				}
			}
		}
	}
	return true
}

// checkCall classifies one call: builtin, conversion, static function
// or method, interface dispatch, or func value.
func (c *checker) checkCall(call *ast.CallExpr, where, origin string) {
	info := c.pass.Info
	fun := analysis.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "clear" && len(call.Args) == 1 {
				if _, isSlice := info.TypeOf(call.Args[0]).Underlying().(*types.Slice); isSlice {
					return // zeroes the slice's elements in place
				}
			}
			if !allowedBuiltins[b.Name()] {
				switch b.Name() {
				case "make", "new", "append":
					c.report(call.Pos(), "%s allocates %s; size buffers at construction and reuse them (//bpvet:allow <reason> for proven capacity reuse)", b.Name(), where)
				case "delete", "clear":
					c.report(call.Pos(), "%s %s: map mutation on the hot path", b.Name(), where)
				default:
					c.report(call.Pos(), "builtin %s is not audited for hot-path use %s", b.Name(), where)
				}
			}
			return
		}
	}

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type, where)
		return
	}

	// Interface dispatch carries no allocation of its own; the
	// implementations are covered by their own hotpath marks and the
	// runtime alloc guards.
	if analysis.IsInterfaceCall(info, call) {
		return
	}

	fn := analysis.Callee(info, call)
	if fn == nil {
		// A call through a func value (parameter, field); calling one
		// does not allocate. Boxing into one was flagged at creation.
		c.checkArgs(call, where)
		return
	}
	c.checkArgs(call, where)

	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	key := analysis.FuncKey(fn)
	switch {
	case pkg.Path() == c.pass.Path:
		fd := c.decls[fn]
		if fd == nil {
			return
		}
		if m := c.pass.Directives.Mark(fd); m != nil {
			return // hotpath: checked on its own; coldinit: exempt by contract
		}
		c.checkFunc(fd, origin)
	case strings.HasPrefix(pkg.Path(), moduleOf(c.pass.Path)+"/") || pkg.Path() == moduleOf(c.pass.Path):
		if !c.pass.Facts.Analyzed(pkg.Path()) {
			return // single-package run: callee's package not in scope
		}
		if _, ok := c.pass.Facts.Get(name, pkg.Path()+"."+key); !ok {
			c.report(call.Pos(), "call to %s.%s %s, but it is not marked //bpvet:hotpath or //bpvet:coldinit", pkg.Path(), key, where)
		}
	default:
		if !allowedStdlib[pkg.Path()] {
			c.report(call.Pos(), "call to %s.%s %s: stdlib outside math/math/bits is not audited for allocation", pkg.Path(), key, where)
		}
	}
}

// moduleOf derives the module root from an import path ("xorbp/..." ->
// "xorbp").
func moduleOf(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[:i]
	}
	return path
}

// checkArgs flags concrete values boxed into interface parameters.
func (c *checker) checkArgs(call *ast.CallExpr, where string) {
	tv, ok := c.pass.Info.Types[analysis.Unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // s... passes the slice through; no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		c.checkBox(arg, pt, "passing", where)
	}
}

// checkBox reports moving a concrete value into an interface slot.
func (c *checker) checkBox(e ast.Expr, target types.Type, how, where string) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type.Underlying()) {
		return
	}
	c.report(e.Pos(), "%s concrete %s as interface %s boxes it (heap allocation) %s", how, tv.Type.String(), target.String(), where)
}

// checkConversion flags allocating conversions: interface boxing and
// string<->byte/rune-slice copies.
func (c *checker) checkConversion(call *ast.CallExpr, target types.Type, where string) {
	if len(call.Args) != 1 {
		return
	}
	if types.IsInterface(target.Underlying()) {
		c.checkBox(call.Args[0], target, "converting", where)
		return
	}
	st, ok := c.pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	tb, tIsBasic := target.Underlying().(*types.Basic)
	sb, sIsBasic := st.Type.Underlying().(*types.Basic)
	_, sIsSlice := st.Type.Underlying().(*types.Slice)
	_, tIsSlice := target.Underlying().(*types.Slice)
	switch {
	case tIsBasic && tb.Info()&types.IsString != 0 && (sIsSlice || (sIsBasic && sb.Info()&types.IsInteger != 0 && st.Value == nil)):
		c.report(call.Pos(), "conversion to string copies %s", where)
	case tIsSlice && sIsBasic && sb.Info()&types.IsString != 0:
		c.report(call.Pos(), "conversion of string to slice copies %s", where)
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, format, args...)
}
