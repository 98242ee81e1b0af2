// Command apidump prints a stable, sorted dump of the module's public API
// surface: every exported constant, variable, type, function and method of
// the public packages, with documentation and function bodies stripped and
// unexported struct fields elided.
//
// CI diffs its output against api/public.txt, so any change to the public
// surface — intended or not — shows up in review as a golden-file diff.
// After an intentional API change, regenerate with:
//
//	go run ./cmd/apidump > api/public.txt
//
// The dump is produced from the AST alone (no type checking), so it is
// stable across Go releases. Methods an exported struct type promotes from
// its unexported embedded types are listed under the outer type's receiver,
// exactly as if the outer type declared them.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// packages lists the public surface in print order: import path suffix and
// directory relative to the module root.
var packages = []struct{ path, dir string }{
	{"robustsample/sketch", "sketch"},
	{"robustsample/quantile", "quantile"},
	{"robustsample/topk", "topk"},
	{"robustsample/shard", "shard"},
	{"robustsample/switching", "switching"},
	{"robustsample/farm", "farm"},
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var out bytes.Buffer
	for _, p := range packages {
		if err := dumpPackage(&out, p.path, filepath.Join(root, p.dir)); err != nil {
			fmt.Fprintf(os.Stderr, "apidump: %s: %v\n", p.path, err)
			os.Exit(1)
		}
	}
	os.Stdout.Write(out.Bytes())
}

type entry struct {
	key  string
	text string
}

func dumpPackage(out *bytes.Buffer, path, dir string) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	var entries []entry
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		// Promotion reads embedded fields, which declEntries elides.
		entries = append(entries, promotedEntries(fset, pkg.Files)...)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				entries = append(entries, declEntries(fset, decl)...)
			}
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	fmt.Fprintf(out, "== %s\n", path)
	for _, e := range entries {
		fmt.Fprintln(out, e.text)
	}
	fmt.Fprintln(out)
	return nil
}

// declEntries renders one top-level declaration's exported parts.
func declEntries(fset *token.FileSet, decl ast.Decl) []entry {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		key := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			base := receiverBase(d.Recv.List[0].Type)
			if base == "" || !ast.IsExported(base) {
				return nil
			}
			key = base + "." + d.Name.Name
		}
		d.Doc = nil
		d.Body = nil
		return []entry{{key, render(fset, d)}}
	case *ast.GenDecl:
		var entries []entry
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				elideUnexportedFields(s.Type)
				s.Doc, s.Comment = nil, nil
				g := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{s}}
				entries = append(entries, entry{s.Name.Name, render(fset, g)})
			case *ast.ValueSpec:
				names := exportedNames(s.Names)
				if len(names) == 0 {
					continue
				}
				// Render the spec as declared (values of consts/vars are
				// part of the observable API for sentinels and enums).
				s.Doc, s.Comment = nil, nil
				g := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{s}}
				entries = append(entries, entry{names[0], render(fset, g)})
			}
		}
		return entries
	}
	return nil
}

// promotedEntries renders, for each exported type, the exported methods it
// promotes from its unexported embedded struct types, at any depth. The
// embedding tree is walked breadth first with Go's selector rule: a method
// is promoted only when it is the one field or method of its name at the
// shallowest depth where that name occurs.
func promotedEntries(fset *token.FileSet, files map[string]*ast.File) []entry {
	specs := make(map[string]*ast.TypeSpec)
	methods := make(map[string][]*ast.FuncDecl)
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						specs[ts.Name.Name] = ts
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					base := receiverBase(d.Recv.List[0].Type)
					methods[base] = append(methods[base], d)
				}
			}
		}
	}
	type embedding struct {
		spec *ast.TypeSpec
		args []string // its type arguments, in the outer type's terms
	}
	var entries []entry
	for name, outer := range specs {
		if !ast.IsExported(name) {
			continue
		}
		params := typeParams(outer)
		shadowed := make(map[string]bool)
		level := []embedding{{outer, params}}
		for depth := 0; len(level) > 0; depth++ {
			var next []embedding
			count := make(map[string]int) // fields and methods of each name at this depth
			promoted := make(map[string]entry)
			for _, e := range level {
				for _, m := range methods[e.spec.Name.Name] {
					count[m.Name.Name]++
					if depth > 0 && m.Name.IsExported() {
						promoted[m.Name.Name] = entry{name + "." + m.Name.Name, promotedMethod(fset, m, name, params, e.args)}
					}
				}
				st, ok := e.spec.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						count[n.Name]++
					}
					inner := specs[receiverBase(f.Type)]
					if len(f.Names) > 0 || inner == nil {
						continue
					}
					count[inner.Name.Name]++
					if ast.IsExported(inner.Name.Name) {
						continue
					}
					args := typeArgs(fset, f.Type)
					for i := range args {
						args[i] = substitute(args[i], typeParams(e.spec), e.args)
					}
					next = append(next, embedding{inner, args})
				}
			}
			for n, c := range count {
				if e, ok := promoted[n]; ok && c == 1 && !shadowed[n] {
					entries = append(entries, e)
				}
				shadowed[n] = true
			}
			level = next
		}
	}
	return entries
}

// promotedMethod renders method m under the outer type's receiver; params
// are the outer type's type parameters and args the type arguments m's
// receiver type is instantiated with.
func promotedMethod(fset *token.FileSet, m *ast.FuncDecl, outer string, params, args []string) string {
	field := m.Recv.List[0]
	recv := outer
	if len(params) > 0 {
		recv += "[" + strings.Join(params, ", ") + "]"
	}
	if _, ok := field.Type.(*ast.StarExpr); ok {
		recv = "*" + recv
	}
	if len(field.Names) == 1 {
		recv = field.Names[0].Name + " " + recv
	}
	sig := strings.TrimPrefix(render(fset, m.Type), "func")
	return fmt.Sprintf("func (%s) %s%s", recv, m.Name.Name, substitute(sig, typeArgs(fset, field.Type), args))
}

// typeParams lists a type declaration's type parameter names.
func typeParams(spec *ast.TypeSpec) []string {
	var out []string
	if spec.TypeParams != nil {
		for _, f := range spec.TypeParams.List {
			for _, n := range f.Names {
				out = append(out, n.Name)
			}
		}
	}
	return out
}

// typeArgs renders the type arguments of an instantiated type expression,
// under any pointer.
func typeArgs(fset *token.FileSet, t ast.Expr) []string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	var indices []ast.Expr
	switch v := t.(type) {
	case *ast.IndexExpr:
		indices = []ast.Expr{v.Index}
	case *ast.IndexListExpr:
		indices = v.Indices
	}
	out := make([]string, len(indices))
	for i, x := range indices {
		out[i] = render(fset, x)
	}
	return out
}

// substitute replaces each identifier of the Go source text named in names
// by the matching entry of args.
func substitute(text string, names, args []string) string {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(text))
	var s scanner.Scanner
	s.Init(file, []byte(text), nil, 0)
	var b strings.Builder
	last := 0
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if i := slices.Index(names, lit); tok == token.IDENT && i >= 0 && i < len(args) {
			off := file.Offset(pos)
			b.WriteString(text[last:off])
			b.WriteString(args[i])
			last = off + len(lit)
		}
	}
	b.WriteString(text[last:])
	return b.String()
}

func exportedNames(idents []*ast.Ident) []string {
	var out []string
	for _, id := range idents {
		if id.IsExported() {
			out = append(out, id.Name)
		}
	}
	return out
}

// receiverBase returns the type name under any pointer/generic wrapping.
func receiverBase(t ast.Expr) string {
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// elideUnexportedFields removes unexported struct fields (implementation
// detail, not API) in place.
func elideUnexportedFields(t ast.Expr) {
	st, ok := t.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	kept := st.Fields.List[:0]
	elided := false
	for _, f := range st.Fields.List {
		if len(exportedNames(f.Names)) == len(f.Names) && len(f.Names) > 0 {
			f.Doc, f.Comment = nil, nil
			kept = append(kept, f)
			continue
		}
		elided = true
	}
	st.Fields.List = kept
	if elided {
		// A marker keeps "struct with hidden fields" distinguishable from
		// an open struct literal.
		st.Fields.List = append(st.Fields.List, &ast.Field{
			Names: nil,
			Type:  &ast.Ident{Name: "unexportedFields"},
		})
	}
}

func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("/* render error: %v */", err)
	}
	// Collapse internal newlines so each symbol stays one logical block.
	return strings.TrimRight(buf.String(), "\n")
}
