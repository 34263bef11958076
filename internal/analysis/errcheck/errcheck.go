// Package errcheck implements the bpvet analyzer that forbids silently
// dropped errors on the I/O-bearing paths: the run cache, the wire
// protocol, the fleet's queue protocol, trace handling, the backing
// stores, and the driver.
//
// The rule is deliberately narrower than a full errcheck: only a call
// used as a bare expression statement is flagged, and only in the
// packages where a swallowed error corrupts persisted or transmitted
// state. Writing `_ = f()` remains legal — it is visible in review —
// and `defer f()` cleanup is exempt (the interesting error already
// happened). Two sinks are exempt because their errors are vacuous by
// contract: writers documented never to fail (strings.Builder,
// bytes.Buffer, hash.Hash) and fmt.Fprint* straight to os.Stderr or
// os.Stdout (console diagnostics — there is no one left to tell).
package errcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"xorbp/internal/analysis"
)

// Analyzer is the dropped-error checker.
var Analyzer = &analysis.Analyzer{
	Name: "errcheck",
	Doc:  "forbid bare call statements that discard an error on cache/wire/fleet/store I/O paths",
	Run:  run,
}

// scopedSuffixes are the packages where dropped errors poison durable
// or transmitted state.
var scopedSuffixes = []string{
	"internal/runcache",
	"internal/wire",
	"internal/trace",
	"internal/store",
	"internal/driver",
	"internal/fleet",
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, s := range scopedSuffixes {
		if strings.HasSuffix(pass.Path, s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := analysis.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if returnsError(pass.Info, call) && !exemptSink(pass.Info, call) {
				name := callName(pass.Info, call)
				// One blank per result, so the fix compiles for
				// multi-valued callees too.
				blanks := "_ = "
				if t, ok := pass.Info.Types[call].Type.(*types.Tuple); ok {
					blanks = strings.Repeat("_, ", t.Len()-1) + "_ = "
				}
				fix := analysis.SuggestedFix{
					Message: "make the discard explicit with `" + blanks + name + "(...)`",
					Edits:   []analysis.TextEdit{pass.Edit(stmt.Pos(), stmt.Pos(), blanks)},
				}
				pass.ReportFix(stmt.Pos(), fix, "%s returns an error that is dropped; handle it, or make a best-effort discard explicit with `_ = %s(...)`", name, name)
			}
			return true
		})
	}
	return nil
}

// neverFailRecv are receiver types whose Write-family methods are
// documented to always return a nil error.
var neverFailRecv = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"hash.Hash":       true,
}

// exemptSink reports whether the dropped error is vacuous by contract:
// a never-fail writer method, or console output to stderr/stdout.
func exemptSink(info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				if neverFailRecv[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
					return true
				}
			}
		}
	}
	if fn := analysis.Callee(info, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		if sel, ok := analysis.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "os" &&
				(v.Name() == "Stderr" || v.Name() == "Stdout") {
				return true
			}
		}
	}
	return false
}

// returnsError reports whether any of the call's results is error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callName renders the called function for the diagnostic.
func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.Callee(info, call); fn != nil {
		return analysis.FuncKey(fn)
	}
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "call"
}
