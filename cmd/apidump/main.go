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
// stable across Go releases.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
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
