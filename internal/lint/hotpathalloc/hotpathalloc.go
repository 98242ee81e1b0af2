// Package hotpathalloc guards the 0 allocs/op pins of BENCH.md: functions
// annotated //robust:hotpath (the OfferBatch family, Ring.PushBatch/
// PopInto, the live run routes, the accumulator's AddStreamBatch) are
// checked for constructs that defeat the zero-allocation steady state, and
// the set of annotations is cross-checked against a committed golden list
// so a new hot path cannot appear without registering (and an old one
// cannot silently drop its guard).
//
// Inside an annotated function the analyzer flags:
//
//   - defer and go statements (defers in loops allocate; goroutine launch
//     always does),
//   - function literals (closure allocation at creation),
//   - map literals, map makes, and &composite literals (escape-prone),
//   - make/new outside the guarded-scratch idiom — an `if` whose condition
//     tests cap/len/nil justifies a grow-once allocation, as in
//     `if cap(v.ubuf) < n { v.ubuf = make(...) }`,
//   - append whose result is not assigned back to its own first argument
//     (self-assignment `x = append(x, ...)` is the amortized-zero pattern;
//     anything else allocates per call),
//   - fmt.* and log.* calls (interface boxing plus formatting state),
//   - string concatenation and string<->[]byte/[]rune conversions,
//   - implicit conversions of concrete values to interface parameters or
//     results (boxing).
//
// A flagged construct that is provably cold (a once-per-process fill, an
// open-coded defer required by a shutdown protocol) is suppressed with
// //robust:alloc <reason>, keeping the opt-out audited.
//
// The golden list lives in golden.txt next to this file, one
// "pkgpath.Func" or "pkgpath.(*Recv).Method" per line (closures annotated
// at their assignment register as "pkgpath.EnclosingFunc.varname"); an
// optional trailing "bench=Name1,Name2" maps the entry to robustbench
// -json entry names so cmd/benchdiff can warn when a benchmarked hot path
// is not lint-guarded.
package hotpathalloc

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"robustsample/internal/lint"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc:  "//robust:hotpath functions must stay zero-alloc and must be registered in the golden list",
	Run:  run,
}

//go:embed golden.txt
var goldenRaw string

// Golden is the parsed golden list: entry name -> bench names (possibly
// empty). Tests substitute their own list; ParseGolden rebuilds one from a
// golden.txt-format string.
var Golden = ParseGolden(goldenRaw)

// ParseGolden parses golden.txt content: one entry per line, '#' comments,
// optional "bench=a,b" suffix.
func ParseGolden(raw string) map[string][]string {
	out := make(map[string][]string)
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, benches, _ := strings.Cut(line, " ")
		var bs []string
		if b, ok := strings.CutPrefix(strings.TrimSpace(benches), "bench="); ok {
			for _, s := range strings.Split(b, ",") {
				if s = strings.TrimSpace(s); s != "" {
					bs = append(bs, s)
				}
			}
		}
		out[name] = bs
	}
	return out
}

func run(pass *lint.Pass) error {
	seen := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, hot := pass.FuncDirective(fd, "hotpath"); hot {
				name := declName(pass, fd)
				seen[name] = true
				if _, ok := Golden[name]; !ok {
					pass.Reportf(fd.Pos(), "hot path %s is not registered in internal/lint/hotpathalloc/golden.txt — add it so the zero-alloc pin and the benchdiff gate know about it", name)
				}
				checkHot(pass, fd.Body, fd.Name.Name)
			}
			// Annotated closures inside any function (hot or not): the
			// router batch lanes pattern.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				lit, ok := as.Rhs[0].(*ast.FuncLit)
				if !ok {
					return true
				}
				if _, hot := pass.LitDirective(lit, "hotpath"); !hot {
					return true
				}
				id, ok := as.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				name := declName(pass, fd) + "." + id.Name
				seen[name] = true
				if _, ok := Golden[name]; !ok {
					pass.Reportf(lit.Pos(), "hot-path closure %s is not registered in internal/lint/hotpathalloc/golden.txt", name)
				}
				checkHot(pass, lit.Body, id.Name)
				return false // the closure body was just checked; don't re-enter
			})
		}
	}

	// Reverse direction: every golden entry belonging to this package must
	// still exist and carry the annotation, so a hot path cannot shed its
	// guard by deleting the comment.
	prefix := pass.Pkg.Path() + "."
	for name := range Golden {
		if strings.HasPrefix(name, prefix) && !seen[name] && len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Package, "golden hot path %s is not annotated //robust:hotpath in this package (stale golden.txt entry, or a dropped annotation)", name)
		}
	}
	return nil
}

// declName renders the golden-list name of fd: pkgpath.Func or
// pkgpath.(*Recv).Method, with generic type parameters stripped.
func declName(pass *lint.Pass, fd *ast.FuncDecl) string {
	pkg := pass.Pkg.Path()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if star, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = star.X
	}
	// Strip type parameters: Reservoir[T] -> Reservoir.
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	base := "?"
	if id, ok := t.(*ast.Ident); ok {
		base = id.Name
	}
	if ptr {
		return fmt.Sprintf("%s.(*%s).%s", pkg, base, fd.Name.Name)
	}
	return fmt.Sprintf("%s.%s.%s", pkg, base, fd.Name.Name)
}

// checkHot walks one hot-path body reporting alloc-prone constructs.
func checkHot(pass *lint.Pass, body *ast.BlockStmt, fname string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if !pass.Suppressed(n.Pos(), "alloc") {
				pass.Reportf(n.Pos(), "defer in hot path %s: defers in loops allocate and all defers add call overhead (//robust:alloc <reason> if this one is open-coded and required)", fname)
			}
		case *ast.GoStmt:
			if !pass.Suppressed(n.Pos(), "alloc") {
				pass.Reportf(n.Pos(), "go statement in hot path %s: goroutine launch allocates", fname)
			}
		case *ast.FuncLit:
			if !pass.Suppressed(n.Pos(), "alloc") {
				pass.Reportf(n.Pos(), "closure in hot path %s: function literals allocate at creation", fname)
			}
			return false
		case *ast.CompositeLit:
			t := pass.Info.Types[n].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if !pass.Suppressed(n.Pos(), "alloc") {
					pass.Reportf(n.Pos(), "map literal in hot path %s allocates", fname)
				}
			}
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok && n.Op.String() == "&" {
				if !pass.Suppressed(n.Pos(), "alloc") {
					pass.Reportf(n.Pos(), "&composite literal in hot path %s escapes to the heap", fname)
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := pass.Info.Types[n].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if !pass.Suppressed(n.Pos(), "alloc") {
							pass.Reportf(n.Pos(), "string concatenation in hot path %s allocates", fname)
						}
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, fname)
		}
		return true
	})
}

// checkHotCall handles the call-shaped findings: builtin allocators, fmt/log,
// string conversions, and interface-boxing arguments.
func checkHotCall(pass *lint.Pass, call *ast.CallExpr, fname string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := pass.Info.Uses[fun].(*types.Builtin); ok {
			switch fun.Name {
			case "panic":
				// Boxing into panic's any parameter happens only on the
				// invariant-violation path, which is cold by definition.
				return
			case "make", "new":
				if !growGuarded(pass, call) && !pass.Suppressed(call.Pos(), "alloc") {
					pass.Reportf(call.Pos(), "%s in hot path %s allocates per call — guard it with a cap/len/nil check (grow-once scratch) or hoist it out of the hot path", fun.Name, fname)
				}
				return
			case "append":
				if !appendSelfAssigned(pass, call) && !pass.Suppressed(call.Pos(), "alloc") {
					pass.Reportf(call.Pos(), "append in hot path %s whose result is not assigned back to its own slice — per-call growth defeats the zero-alloc pin", fname)
				}
				return
			}
		}
		// Conversions: string(b), []byte(s), []rune(s).
		if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
			checkConversion(pass, call, tv.Type, fname)
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok {
				switch pkg.Imported().Path() {
				case "fmt", "log":
					if !pass.Suppressed(call.Pos(), "alloc") {
						pass.Reportf(call.Pos(), "%s.%s in hot path %s: formatting boxes arguments and allocates", pkg.Imported().Path(), fun.Sel.Name, fname)
					}
					return
				}
			}
		}
	case *ast.ArrayType, *ast.MapType:
		// Conversion spelled with a type expression: []byte(x).
		if tv, ok := pass.Info.Types[call.Fun.(ast.Expr)]; ok && tv.IsType() {
			checkConversion(pass, call, tv.Type, fname)
			return
		}
	}
	checkBoxing(pass, call, fname)
}

// checkConversion flags string<->[]byte/[]rune conversions.
func checkConversion(pass *lint.Pass, call *ast.CallExpr, to types.Type, fname string) {
	if len(call.Args) != 1 {
		return
	}
	from := pass.Info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	if isStringType(to) != isStringType(from) && (isStringType(to) || isStringType(from)) &&
		(isByteOrRuneSlice(to) || isByteOrRuneSlice(from)) {
		if !pass.Suppressed(call.Pos(), "alloc") {
			pass.Reportf(call.Pos(), "conversion %s -> %s in hot path %s copies and allocates", from, to, fname)
		}
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// checkBoxing flags concrete arguments passed to interface parameters.
func checkBoxing(pass *lint.Pass, call *ast.CallExpr, fname string) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok && !call.Ellipsis.IsValid() {
				param = s.Elem()
			}
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i).Type()
		}
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.Info.Types[arg]
		if at.Type == nil || at.IsNil() {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue // already boxed
		}
		if tp, ok := param.(*types.TypeParam); ok {
			_ = tp
			continue // generic instantiation, not boxing
		}
		if !pass.Suppressed(arg.Pos(), "alloc") {
			pass.Reportf(arg.Pos(), "argument %s boxes a concrete %s into interface %s in hot path %s", exprString(pass, arg), at.Type, param, fname)
		}
	}
}

func exprString(pass *lint.Pass, e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "value"
}

// growGuarded reports whether a make/new call sits inside an if statement
// whose condition inspects cap, len, or nil — the sanctioned grow-once
// scratch idiom.
func growGuarded(pass *lint.Pass, call *ast.CallExpr) bool {
	ifStmt := enclosingIf(pass, call)
	if ifStmt == nil {
		return false
	}
	guarded := false
	ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					guarded = true
				}
			}
		case *ast.Ident:
			if n.Name == "nil" {
				guarded = true
			}
		}
		return true
	})
	return guarded
}

// enclosingIf finds the innermost if statement containing pos within the
// enclosing function body.
func enclosingIf(pass *lint.Pass, call *ast.CallExpr) *ast.IfStmt {
	fd := pass.EnclosingFunc(call.Pos())
	if fd == nil || fd.Body == nil {
		return nil
	}
	var best *ast.IfStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if is, ok := n.(*ast.IfStmt); ok && is.Pos() <= call.Pos() && call.End() <= is.End() {
			best = is
		}
		return true
	})
	return best
}

// appendSelfAssigned reports whether call is the RHS of `x = append(x, ...)`
// or the reset-and-refill form `x = append(x[:0], ...)` (the assignment
// target and the first argument's base are textually identical — both reuse
// x's capacity, so growth is amortized to zero).
func appendSelfAssigned(pass *lint.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	as := enclosingAssign(pass, call)
	if as == nil || len(as.Lhs) == 0 {
		return false
	}
	arg := call.Args[0]
	if se, ok := arg.(*ast.SliceExpr); ok {
		arg = se.X
	}
	// Find which RHS this call is.
	for i, rhs := range as.Rhs {
		if rhs == call {
			if i < len(as.Lhs) {
				return types.ExprString(as.Lhs[i]) == types.ExprString(arg)
			}
		}
	}
	return false
}

func enclosingAssign(pass *lint.Pass, call *ast.CallExpr) *ast.AssignStmt {
	fd := pass.EnclosingFunc(call.Pos())
	if fd == nil || fd.Body == nil {
		return nil
	}
	var best *ast.AssignStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				if rhs == call {
					best = as
				}
			}
		}
		return true
	})
	return best
}
