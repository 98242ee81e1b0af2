// Package analysistest runs a lint.Analyzer over a testdata source corpus
// and checks its diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library only.
//
// Corpus layout follows the x/tools convention: testdata/src/<importpath>/
// holds one package, and the import path given to Run doubles as the
// package's path during type-checking — so an analyzer that keys off import
// paths (detsource's determinism-contract packages) sees the path the corpus
// directory spells, e.g. testdata/src/robustsample/internal/sampler.
//
// Expectations are end-of-line comments on the offending line:
//
//	time.Now() // want `detsource: wall clock`
//	x := 1     // two findings: // want `first` `second`
//
// Every diagnostic must match a want on its line and every want must be
// matched by a diagnostic; anything else fails the test. Expect applies the
// same rules to a whole-program analyzer's diagnostics over a corpus module.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"robustsample/internal/lint"
)

// Run loads testdata/src/<pkgpath> for each pkgpath, runs the analyzer, and
// reports mismatches between diagnostics and want comments through t.
//
//robust:root the harness of every analyzer's corpus test; only tests call it
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, pkgpath := range pkgpaths {
		runOne(t, testdata, a, pkgpath)
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want (.*)$")
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func runOne(t *testing.T, testdata string, a *lint.Analyzer, pkgpath string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", pkgpath, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	wants := make(wantSet)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(full)
		if err != nil {
			t.Fatalf("%s: %v", pkgpath, err)
		}
		f, err := parser.ParseFile(fset, full, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: parse: %v", pkgpath, err)
		}
		files = append(files, f)
		wants.parse(t, full, src)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files in %s", pkgpath, dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(pkgpath, fset, files, info)
	if err != nil {
		t.Fatalf("%s: typecheck: %v", pkgpath, err)
	}

	var diags []lint.Diagnostic
	pass := &lint.Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      tpkg,
		Info:     info,
		Report:   func(d lint.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer error: %v", pkgpath, err)
	}

	wants.check(t, pkgpath, diags)
}

// Expect checks diags against the // want comments of every Go file under
// dir, with Run's matching rules. It is the harness of a whole-program
// analyzer, whose corpus is a module loaded and analyzed as a whole.
//
//robust:root the harness of the deadcode corpus test; only tests call it
func Expect(t *testing.T, dir string, diags []lint.Diagnostic) {
	t.Helper()
	wants := make(wantSet)
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		full, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		wants.parse(t, full, src)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	wants.check(t, dir, diags)
}

// wantSet maps "file:line" to the expectations written on that line.
type wantSet map[string][]*want

// parse collects the want comments of one source file.
func (w wantSet) parse(t *testing.T, filename string, src []byte) {
	t.Helper()
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := fmt.Sprintf("%s:%d", filename, i+1)
		for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
			pat := arg[1]
			if pat == "" {
				pat = arg[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
			}
			w[key] = append(w[key], &want{re: re})
		}
	}
}

// check reports every diagnostic no want claims and every want no
// diagnostic matched.
func (w wantSet) check(t *testing.T, label string, diags []lint.Diagnostic) {
	t.Helper()
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	})
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if !claim(w[key], d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", label, d)
		}
	}
	var keys []string
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, wt := range w[k] {
			if !wt.matched {
				t.Errorf("%s: no diagnostic at %s matching %q", label, k, wt.re)
			}
		}
	}
}

// claim marks the first unmatched expectation matching msg.
func claim(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
