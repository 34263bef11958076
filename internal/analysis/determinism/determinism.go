// Package determinism implements the bpvet analyzer that keeps
// nondeterminism out of the simulation and serialization paths.
//
// The engine's contract is byte-identical results for identical specs
// across serial, parallel, distributed, and cached execution. Four
// stdlib conveniences quietly break it:
//
//   - time.Now/time.Since smuggle wall-clock values into results,
//   - math/rand draws from unseeded (or globally shared) generators
//     where the repo's seeded rng package must be used,
//   - ranging over a map feeds Go's randomized iteration order into
//     whatever the loop body writes,
//   - %v/%+v/%#v of a struct bakes the field set into cache keys and
//     wire bytes, so adding a field silently changes them (the PR 1
//     cache-key incident).
//
// Telemetry that genuinely wants wall-clock time carries a
// //bpvet:allow <reason> directive; everything else is a diagnostic.
package determinism

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"
	"strings"

	"xorbp/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, math/rand, map-order-dependent output, and %v struct formatting on keyed paths",
	Run:  run,
}

// wirePathSuffixes are the packages whose formatted strings can become
// cache keys or wire bytes; %v-family struct formatting is banned there.
var wirePathSuffixes = []string{
	"internal/wire",
	"internal/runcache",
	"internal/experiment",
	"internal/driver",
	"internal/fleet",
}

func run(pass *analysis.Pass) error {
	internal := strings.Contains(pass.Path+"/", "internal/")
	wirePath := false
	for _, s := range wirePathSuffixes {
		if strings.HasSuffix(pass.Path, s) {
			wirePath = true
			break
		}
	}

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s: use the seeded generators in xorbp/internal/rng so runs are reproducible", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if internal {
					for _, name := range []string{"Now", "Since"} {
						if analysis.IsPkgCall(pass.Info, n, "time", name) {
							pass.Reportf(n.Pos(), "time.%s reads the wall clock; results must be a pure function of the spec (//bpvet:allow <reason> for telemetry)", name)
						}
					}
				}
				if wirePath {
					checkFormat(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags `for k := range m` loops whose body calls an
// output/serialization sink: map iteration order is randomized per run,
// so anything written inside the loop inherits that order.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sink, what := sinkCall(pass.Info, call); sink {
			pass.Reportf(rs.Pos(), "map iteration order is randomized, but this loop writes to %s; iterate a sorted key slice instead", what)
			return false
		}
		return true
	})
}

// sinkNames are method names that emit bytes: writers, encoders, and
// hash inputs all make map order observable.
var sinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true, "Render": true,
}

func sinkCall(info *types.Info, call *ast.CallExpr) (bool, string) {
	if fn := analysis.Callee(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "encoding/json":
			return true, fn.Pkg().Path() + "." + fn.Name()
		}
		if sinkNames[fn.Name()] {
			return true, fn.Name()
		}
	}
	// Interface dispatch (io.Writer, json.Marshaler targets) resolves to
	// no static callee; match on the selector name.
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok && sinkNames[sel.Sel.Name] {
		return true, sel.Sel.Name
	}
	return false, ""
}

// formatFuncs maps fmt functions to the position of their format-string
// argument.
var formatFuncs = map[string]int{
	"Printf": 0, "Sprintf": 0, "Errorf": 0,
	"Fprintf": 1, "Appendf": 1,
}

// checkFormat flags %v/%+v/%#v applied to structs, maps, or plain
// interfaces in wire-path packages. Types with an explicit String() or
// Error() contract are exempt: their rendering is a deliberate API, not
// an accidental field dump.
func checkFormat(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	fmtArg, ok := formatFuncs[fn.Name()]
	if !ok || len(call.Args) <= fmtArg {
		return
	}
	tv, ok := pass.Info.Types[call.Args[fmtArg]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	for _, v := range parseVerbs(format) {
		if v.verb != 'v' {
			continue
		}
		argIdx := fmtArg + 1 + v.arg
		if argIdx >= len(call.Args) {
			continue // malformed call; vet's territory
		}
		arg := call.Args[argIdx]
		atv, ok := pass.Info.Types[arg]
		if !ok {
			continue
		}
		if kind, bad := opaqueAggregate(atv.Type); bad {
			pass.Reportf(arg.Pos(), "%%%sv formats a %s: the rendering changes when fields change, which breaks cache keys and wire bytes; marshal explicit fields or implement String()", v.flags, kind)
		}
	}
}

type verbAt struct {
	verb  rune
	flags string // "+" or "#" when present, for the message
	arg   int    // variadic argument index consumed by this verb
}

// parseVerbs extracts the verbs of a fmt format string together with
// the variadic argument index each consumes, accounting for '*'
// width/precision and explicit [n] argument indexes.
func parseVerbs(format string) []verbAt {
	var out []verbAt
	arg := 0
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		flags := ""
		for i < len(rs) && strings.ContainsRune("+-# 0", rs[i]) {
			if rs[i] == '+' || rs[i] == '#' {
				flags += string(rs[i])
			}
			i++
		}
		// Explicit argument index: %[n]v.
		if i < len(rs) && rs[i] == '[' {
			j := i + 1
			n := 0
			for j < len(rs) && rs[j] >= '0' && rs[j] <= '9' {
				n = n*10 + int(rs[j]-'0')
				j++
			}
			if j < len(rs) && rs[j] == ']' && n > 0 {
				arg = n - 1
				i = j + 1
			}
		}
		// Width, then optional precision; '*' consumes an argument.
		for pass := 0; pass < 2; pass++ {
			if i < len(rs) && rs[i] == '*' {
				arg++
				i++
			}
			for i < len(rs) && rs[i] >= '0' && rs[i] <= '9' {
				i++
			}
			if pass == 0 && i < len(rs) && rs[i] == '.' {
				i++
				continue
			}
			break
		}
		if i >= len(rs) {
			break
		}
		if rs[i] == '%' {
			continue
		}
		out = append(out, verbAt{verb: rs[i], flags: flags, arg: arg})
		arg++
	}
	return out
}

// opaqueAggregate reports whether %v of a value of type t dumps an
// implicit field/element set. Stringer and error implementors are
// exempt — fmt uses their methods, which are explicit contracts.
func opaqueAggregate(t types.Type) (string, bool) {
	if t == nil || hasStringContract(t) {
		return "", false
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return "struct", true
	case *types.Map:
		return "map", true
	case *types.Interface:
		if u.NumMethods() == 0 {
			return "", false // any/error params already filtered; bare any is the caller's dynamic type, unknowable — leave to the concrete sites
		}
		return "", false
	case *types.Pointer:
		if hasStringContract(u.Elem()) {
			return "", false
		}
		if _, ok := u.Elem().Underlying().(*types.Struct); ok {
			return "struct", true
		}
	}
	return "", false
}

// hasStringContract reports whether t (or *t) has String() string or
// Error() string.
func hasStringContract(t types.Type) bool {
	for _, name := range []string{"String", "Error"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 {
			if b, ok := sig.Results().At(0).Type().(*types.Basic); ok && b.Kind() == types.String {
				return true
			}
		}
	}
	return false
}
