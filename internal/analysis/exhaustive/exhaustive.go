// Package exhaustive implements the bpvet analyzer that keeps the
// repo's dispatch registries closed under extension.
//
// Adding a mechanism (STBPU, CIBPU) or predictor touches several
// mirrored lists: the wire Kind* constants and the switches that
// dispatch on Spec.Kind; the core Codec/Scrambler interfaces and their
// ByName registries; the experiment predictor name list, constructor
// switch, and wire-side validator. Each pair has already drifted once
// in review. The analyzer makes drift a build error:
//
//  1. every switch on a wire Spec's Kind field has a case for "" (the
//     zero kind), a case for every Kind* string constant the Spec's
//     package declares, and a default arm for forward compatibility;
//  2. in internal/core, every named type implementing Codec (or
//     Scrambler) appears in CodecByName (ScramblerByName), and each
//     `case T{}.Name():` clause returns that same T;
//  3. in internal/experiment, PredictorNames() is a subset of
//     NewDirPredictor's switch, and NewDirPredictor's case set equals
//     validPredictor's — the wire validator may not drift from the
//     constructor.
//
// The anchors are recognized by shape (package path suffix, type and
// function names); an anchor that exists but no longer parses as the
// expected shape is itself a diagnostic, so refactors cannot silently
// detach the checks.
package exhaustive

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"xorbp/internal/analysis"
)

// Analyzer is the registry/dispatch exhaustiveness checker.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc:  "require Kind switches, ByName registries, and predictor name lists to stay mutually complete",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	checkKindSwitches(pass)
	if strings.HasSuffix(pass.Path, "internal/core") {
		checkRegistry(pass, "Codec", "CodecByName")
		checkRegistry(pass, "Scrambler", "ScramblerByName")
	}
	if strings.HasSuffix(pass.Path, "internal/experiment") {
		checkPredictorLists(pass)
	}
	return nil
}

// --- rule 1: Kind switches -------------------------------------------

func checkKindSwitches(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			sel, ok := analysis.Unparen(sw.Tag).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Kind" {
				return true
			}
			spec := specStructOf(pass.Info, sel.X)
			if spec == nil {
				return true
			}
			declared := kindConsts(spec.Obj().Pkg())
			handled := make(map[string]bool)
			hasDefault := false
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
						handled[constant.StringVal(tv.Value)] = true
					}
				}
			}
			var missing []string
			if !handled[""] {
				missing = append(missing, `"" (the zero kind)`)
			}
			for _, k := range declared {
				if !handled[k.val] {
					missing = append(missing, k.name)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(), "switch on %s.Spec.Kind does not handle %s", spec.Obj().Pkg().Path(), strings.Join(missing, ", "))
			}
			if !hasDefault {
				pass.Reportf(sw.Pos(), "switch on %s.Spec.Kind has no default arm: unknown kinds from newer peers must be rejected explicitly, not fall through", spec.Obj().Pkg().Path())
			}
			return true
		})
	}
}

// specStructOf returns the named type of x when x is a value of a
// struct named Spec declared in a package whose path ends in "wire".
func specStructOf(info *types.Info, x ast.Expr) *types.Named {
	tv, ok := info.Types[x]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Spec" || named.Obj().Pkg() == nil {
		return nil
	}
	if !strings.HasSuffix(named.Obj().Pkg().Path(), "wire") {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

type kindConst struct{ name, val string }

// kindConsts lists pkg's exported Kind* string constants.
func kindConsts(pkg *types.Package) []kindConst {
	var out []kindConst
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Kind") {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		out = append(out, kindConst{name: pkg.Path() + "." + name, val: constant.StringVal(c.Val())})
	}
	return out
}

// --- rule 2: core ByName registries ----------------------------------

func checkRegistry(pass *analysis.Pass, ifaceName, funcName string) {
	scope := pass.Pkg.Scope()
	ifaceObj, ok := scope.Lookup(ifaceName).(*types.TypeName)
	if !ok {
		return // package declares no such interface; nothing anchors here
	}
	iface, ok := ifaceObj.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}

	// All package-level named types implementing the interface.
	var impls []*types.TypeName
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn == ifaceObj || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
			impls = append(impls, tn)
		}
	}

	fd := findFunc(pass, funcName)
	if fd == nil {
		if len(impls) > 0 {
			pass.Reportf(ifaceObj.Pos(), "interface %s has implementations but no %s registry function", ifaceName, funcName)
		}
		return
	}

	// Walk the registry switch: each case must be T{}.Name() and return
	// that same T.
	registered := make(map[string]bool)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		found = true
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			var caseTypes []string
			for _, e := range cc.List {
				t := nameCallType(pass.Info, e)
				if t == "" {
					pass.Reportf(e.Pos(), "%s case key must be a T{}.Name() call so the key cannot drift from the type", funcName)
					continue
				}
				caseTypes = append(caseTypes, t)
				registered[t] = true
			}
			retType := returnedCompositeType(pass.Info, cc.Body)
			if retType == "" {
				pass.Reportf(cc.Pos(), "%s case must return a composite literal of the registered type", funcName)
				continue
			}
			for _, ct := range caseTypes {
				if ct != retType {
					pass.Reportf(cc.Pos(), "%s case key is %s{}.Name() but the clause returns %s{}", funcName, ct, retType)
				}
			}
		}
		return false
	})
	if !found {
		pass.Reportf(fd.Pos(), "%s does not switch on its name argument; the exhaustive analyzer cannot verify the registry", funcName)
		return
	}
	for _, tn := range impls {
		if !registered[tn.Name()] {
			pass.Reportf(tn.Pos(), "%s implements %s but is missing from %s; the wire protocol cannot reconstruct it", tn.Name(), ifaceName, funcName)
		}
	}
}

// nameCallType matches the expression T{}.Name() and returns "T".
func nameCallType(info *types.Info, e ast.Expr) string {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Name" {
		return ""
	}
	return compositeTypeName(info, sel.X)
}

// returnedCompositeType returns the named type "T" of the first result
// in the clause's return statement when it is a composite literal.
func returnedCompositeType(info *types.Info, body []ast.Stmt) string {
	for _, stmt := range body {
		ret, ok := stmt.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			continue
		}
		return compositeTypeName(info, ret.Results[0])
	}
	return ""
}

// compositeTypeName returns "T" for a composite literal T{} (possibly
// parenthesized or address-taken), else "".
func compositeTypeName(info *types.Info, e ast.Expr) string {
	e = analysis.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = analysis.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return ""
	}
	tv, ok := info.Types[lit]
	if !ok {
		return ""
	}
	if named, ok := tv.Type.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// --- rule 3: experiment predictor lists ------------------------------

func checkPredictorLists(pass *analysis.Pass) {
	names := findFunc(pass, "PredictorNames")
	ctor := findFunc(pass, "NewDirPredictor")
	valid := findFunc(pass, "validPredictor")
	if names == nil || ctor == nil || valid == nil {
		var missing []string
		for _, m := range []struct {
			fd   *ast.FuncDecl
			name string
		}{{names, "PredictorNames"}, {ctor, "NewDirPredictor"}, {valid, "validPredictor"}} {
			if m.fd == nil {
				missing = append(missing, m.name)
			}
		}
		pass.Reportf(pass.Files[0].Pos(), "predictor anchor functions missing: %s; the exhaustive analyzer cannot verify the predictor registry", strings.Join(missing, ", "))
		return
	}

	listed := stringLiteralSet(pass, names.Body)
	ctorCases := caseStringSet(pass, ctor.Body)
	validCases := caseStringSet(pass, valid.Body)
	if listed == nil || ctorCases == nil || validCases == nil {
		pass.Reportf(names.Pos(), "predictor anchors did not parse as string-literal list / name switches; the exhaustive analyzer cannot verify the predictor registry")
		return
	}

	for _, n := range sortedDiff(listed, ctorCases) {
		pass.Reportf(names.Pos(), "PredictorNames lists %q but NewDirPredictor has no case for it (sweeps would panic)", n)
	}
	for _, n := range sortedDiff(ctorCases, validCases) {
		pass.Reportf(valid.Pos(), "NewDirPredictor accepts %q but validPredictor rejects it; the wire validator drifted from the constructor", n)
	}
	for _, n := range sortedDiff(validCases, ctorCases) {
		pass.Reportf(valid.Pos(), "validPredictor accepts %q but NewDirPredictor cannot construct it (remote peers would panic the worker)", n)
	}
}

// stringLiteralSet collects the string constants of the first []string
// composite literal in body.
func stringLiteralSet(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	var set map[string]bool
	ast.Inspect(body, func(n ast.Node) bool {
		if set != nil {
			return false
		}
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		set = make(map[string]bool)
		for _, e := range lit.Elts {
			if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				set[constant.StringVal(tv.Value)] = true
			}
		}
		return false
	})
	return set
}

// caseStringSet collects all string constants appearing in case clauses
// within body.
func caseStringSet(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	var set map[string]bool
	ast.Inspect(body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		if set == nil {
			set = make(map[string]bool)
		}
		for _, e := range cc.List {
			if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				set[constant.StringVal(tv.Value)] = true
			}
		}
		return true
	})
	return set
}

func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// findFunc returns the package-level function declaration named name.
func findFunc(pass *analysis.Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}
