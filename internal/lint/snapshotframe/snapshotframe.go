// Package snapshotframe enforces the snapshot-codec contract (DESIGN.md
// "Snapshot laws"): the frame-kind namespace stays collision-free, every
// Snapshot has a Restore, every Restore validates decoded state against the
// universe before building sketch state, and codec version bumps force a
// visit to the round-trip-law tests.
//
// The PR 8 fuzz crasher — Restore accepting sample points outside the
// universe and deferring the panic to View — is exactly the class the
// Restore check catches at compile time.
//
// Checks, per package:
//
//   - frame kinds: package-level integer constants whose names start with
//     "kind"/"Kind"/"frame"/"Frame" share one namespace; two distinct
//     constants with equal values collide (a frame byte claimed twice makes
//     snapshots ambiguous).
//   - pairing: a type with Snapshot() ([]byte, error) must have
//     Restore([]byte) error, and vice versa. A //robust:codec-pair <reason>
//     annotation on the unpaired method records a cross-type pairing (a
//     Snapshot whose bytes another type's Restore accepts).
//   - validation: a Restore method must reach universe validation before
//     its caller can trust the state — it must (transitively through
//     same-package callees) call a function annotated
//     //robust:universe-check, or delegate to another Restore/LoadState
//     (whose own obligation covers the decoded points).
//   - version pins: a package-level constant matching (snap|codec)Version
//     must be pinned by a //robust:codec-version <N> comment in one of the
//     package's _test.go files with N equal to the constant — bumping the
//     codec version without touching the round-trip-law test file is a
//     finding.
package snapshotframe

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"robustsample/internal/lint"
)

// Analyzer is the snapshotframe check.
var Analyzer = &lint.Analyzer{
	Name: "snapshotframe",
	Doc:  "frame kinds unique, Snapshot/Restore paired, Restore validates the universe, codec version bumps touch the law tests",
	Run:  run,
}

var kindNameRe = regexp.MustCompile(`^(kind|Kind|frame|Frame)`)
var versionNameRe = regexp.MustCompile(`(?i)^(snap|codec)version$`)

func run(pass *lint.Pass) error {
	checkKindCollisions(pass)
	checkPairing(pass)
	checkVersionPins(pass)
	return nil
}

// checkKindCollisions flags two kind/frame constants with the same value.
func checkKindCollisions(pass *lint.Pass) {
	type kindConst struct {
		name string
		pos  ast.Node
	}
	byValue := make(map[int64]*ast.Ident)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.Info.Defs[name].(*types.Const)
					if !ok || !kindNameRe.MatchString(name.Name) {
						continue
					}
					v, ok := constant.Int64Val(constant.ToInt(obj.Val()))
					if !ok {
						continue
					}
					if prev, clash := byValue[v]; clash {
						pass.Reportf(name.Pos(), "frame kind %s = %d collides with %s: every frame kind constant must be declared exactly once (snapshots would be ambiguous)", name.Name, v, prev.Name)
					} else {
						byValue[v] = name
					}
				}
			}
		}
	}
}

// checkPairing enforces Snapshot<->Restore pairing and the Restore
// validation obligation.
func checkPairing(pass *lint.Pass) {
	snapshots := make(map[string]*ast.FuncDecl) // receiver type name -> decl
	restores := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := recvTypeName(fd)
			if recv == "" {
				continue
			}
			switch fd.Name.Name {
			case "Snapshot":
				if isSnapshotSig(pass, fd) {
					snapshots[recv] = fd
				}
			case "Restore":
				if isRestoreSig(pass, fd) {
					restores[recv] = fd
				}
			}
		}
	}
	for recv, fd := range snapshots {
		if _, ok := restores[recv]; !ok {
			if _, paired := pass.FuncDirective(fd, "codec-pair"); !paired {
				pass.Reportf(fd.Pos(), "%s has Snapshot but no Restore([]byte) error: every codec must round-trip (three-law tests need both directions; annotate //robust:codec-pair <reason> if another type's Restore accepts this format)", recv)
			}
		}
	}
	for recv, fd := range restores {
		if _, ok := snapshots[recv]; !ok {
			if _, paired := pass.FuncDirective(fd, "codec-pair"); !paired {
				pass.Reportf(fd.Pos(), "%s has Restore but no Snapshot() ([]byte, error): every codec must round-trip (annotate //robust:codec-pair <reason> if the bytes come from another type's Snapshot)", recv)
			}
		}
		if !validatesUniverse(pass, fd, 0, make(map[*ast.FuncDecl]bool)) {
			pass.Reportf(fd.Pos(), "%s.Restore builds state without reaching universe validation: it must call a //robust:universe-check function (or delegate to another Restore/LoadState) before trusting decoded points — the PR 8 fuzz-crasher class", recv)
		}
	}
}

// validatesUniverse reports whether fd (transitively, through same-package
// function declarations, depth-limited) reaches universe validation: a call
// to a //robust:universe-check-annotated function, a delegated Restore, or
// an internal LoadState.
func validatesUniverse(pass *lint.Pass, fd *ast.FuncDecl, depth int, visiting map[*ast.FuncDecl]bool) bool {
	if depth > 4 || visiting[fd] {
		return false
	}
	if _, ok := pass.FuncDirective(fd, "universe-check"); ok {
		return true
	}
	visiting[fd] = true
	defer delete(visiting, fd)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			// Delegation: any x.Restore(...) / x.LoadState(...) discharges
			// the obligation onto the callee's own Restore contract.
			if fun.Sel.Name == "Restore" || fun.Sel.Name == "LoadState" {
				found = true
				return false
			}
			if callee := declOf(pass, fun.Sel); callee != nil {
				if validatesUniverse(pass, callee, depth+1, visiting) {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if callee := declOf(pass, fun); callee != nil {
				if validatesUniverse(pass, callee, depth+1, visiting) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// declOf maps an identifier back to a function declaration in this package.
func declOf(pass *lint.Pass, id *ast.Ident) *ast.FuncDecl {
	obj := pass.Info.Uses[id]
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	pos := fn.Pos()
	for _, f := range pass.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Pos() == pos && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// checkVersionPins requires every codec version constant to be pinned in a
// test file via //robust:codec-version.
func checkVersionPins(pass *lint.Pass) {
	type pin struct {
		value int64
		found bool
	}
	// Collect the pins declared in test files.
	pins := make(map[int64]bool)
	anyTestFile := false
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		anyTestFile = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := lint.ParseDirective(c)
				if !ok || d.Tag != "codec-version" {
					continue
				}
				if v, err := strconv.ParseInt(strings.Fields(d.Reason + " 0")[0], 10, 64); err == nil {
					pins[v] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.Info.Defs[name].(*types.Const)
					if !ok || !versionNameRe.MatchString(name.Name) {
						continue
					}
					v, ok := constant.Int64Val(constant.ToInt(obj.Val()))
					if !ok {
						continue
					}
					if !anyTestFile {
						// External-test-only packages: the base pass has no
						// test files; the obligation still stands and is
						// reported so the pin lands next to the law tests.
						pass.Reportf(name.Pos(), "codec version %s = %d has no //robust:codec-version %d pin in a _test.go file: version bumps must touch the round-trip-law tests", name.Name, v, v)
						continue
					}
					if !pins[v] {
						pass.Reportf(name.Pos(), "codec version %s = %d is not pinned: add '//robust:codec-version %d' to the package's round-trip-law test file so a version bump forces the laws to be revisited", name.Name, v, v)
					}
				}
			}
		}
	}
}

// recvTypeName extracts the receiver's base type name.
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isSnapshotSig matches Snapshot() ([]byte, error).
func isSnapshotSig(pass *lint.Pass, fd *ast.FuncDecl) bool {
	sig, ok := signatureOf(pass, fd)
	if !ok {
		return false
	}
	return sig.Params().Len() == 0 && sig.Results().Len() == 2 &&
		isByteSlice(sig.Results().At(0).Type()) && isError(sig.Results().At(1).Type())
}

// isRestoreSig matches Restore([]byte) error.
func isRestoreSig(pass *lint.Pass, fd *ast.FuncDecl) bool {
	sig, ok := signatureOf(pass, fd)
	if !ok {
		return false
	}
	return sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) &&
		sig.Results().Len() == 1 && isError(sig.Results().At(0).Type())
}

func signatureOf(pass *lint.Pass, fd *ast.FuncDecl) (*types.Signature, bool) {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := obj.Type().(*types.Signature)
	return sig, ok
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isError(t types.Type) bool {
	return t.String() == "error"
}
