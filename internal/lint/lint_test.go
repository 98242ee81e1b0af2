package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"robustsample/internal/lint"
)

func TestRootDirectiveNeedsReason(t *testing.T) {
	const src = `package p

//robust:root
func Bare() {}

//robust:root oracle of another package's tests
func Audited() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []lint.Diagnostic
	lint.CheckDirectives(&lint.Pass{
		Analyzer: &lint.Analyzer{Name: "directives"},
		Fset:     fset,
		Files:    []*ast.File{f},
		Report:   func(d lint.Diagnostic) { diags = append(diags, d) },
	})
	if len(diags) != 1 || diags[0].Pos.Line != 3 || !strings.Contains(diags[0].Message, "//robust:root suppression needs a reason") {
		t.Fatalf("diagnostics = %v, want one missing-reason finding on line 3", diags)
	}
}
