// Package loader loads and type-checks the module's packages for the
// robustlint analyzers without golang.org/x/tools: package metadata comes
// from `go list -json`, syntax from go/parser, and types from go/types with
// the standard library resolved through the compiler-independent source
// importer. In-module packages are type-checked bottom-up in dependency
// order so every analyzer sees fully resolved types.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path ("robustsample/internal/sampler").
	PkgPath string
	// Dir is the package's source directory.
	Dir string
	// Fset positions all of Files.
	Fset *token.FileSet
	// Files holds the parsed syntax: GoFiles plus in-package test files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the checker's resolution maps for Files.
	Info *types.Info
	// IsTestVariant marks the external-test package (package foo_test).
	IsTestVariant bool
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string // in-package _test.go files
	XTestGoFiles []string // external-test (package foo_test) files
	Imports      []string
	TestImports  []string
	XTestImports []string
	Module       *struct{ Path string }
}

// Load lists patterns (relative to dir) with the go command and returns the
// matched in-module packages, type-checked with their in-package test files.
// External-test packages (package foo_test) are returned as separate
// *_test-suffixed entries so their sources are linted too.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}

	// Close over in-module imports not matched by the patterns, so partial
	// pattern lists still type-check against real dependencies.
	for {
		var missing []string
		for _, lp := range listed {
			for _, imp := range append(append(append([]string{}, lp.Imports...), lp.TestImports...), lp.XTestImports...) {
				if lp.Module != nil && strings.HasPrefix(imp, lp.Module.Path+"/") || imp == modulePath(listed) {
					if _, ok := byPath[imp]; !ok {
						missing = append(missing, imp)
					}
				}
			}
		}
		if len(missing) == 0 {
			break
		}
		more, err := goList(dir, dedup(missing))
		if err != nil {
			return nil, err
		}
		for _, lp := range more {
			if _, ok := byPath[lp.ImportPath]; !ok {
				byPath[lp.ImportPath] = lp
				listed = append(listed, lp)
			}
		}
	}

	order, err := topoOrder(listed, byPath)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:     fset,
		source:   importer.ForCompiler(fset, "source", nil),
		packages: make(map[string]*types.Package),
	}

	want := make(map[string]bool, len(listed))
	for _, lp := range listed {
		want[lp.ImportPath] = true
	}

	// Phase 1: base packages (with their in-package test files) in
	// dependency order. Phase 2: external-test packages, which may import
	// anything — by then every base package is resolved.
	var out []*Package
	for _, lp := range order {
		pkg, err := check(fset, imp, lp, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...), lp.ImportPath, false)
		if err != nil {
			return nil, err
		}
		imp.packages[lp.ImportPath] = pkg.Types
		if want[lp.ImportPath] {
			out = append(out, pkg)
		}
	}
	for _, lp := range order {
		if len(lp.XTestGoFiles) == 0 || !want[lp.ImportPath] {
			continue
		}
		xt, err := check(fset, imp, lp, lp.XTestGoFiles, lp.ImportPath+"_test", true)
		if err != nil {
			return nil, err
		}
		out = append(out, xt)
	}
	return out, nil
}

// check parses files and type-checks them as one package.
func check(fset *token.FileSet, imp types.ImporterFrom, lp *listedPackage, files []string, path string, testVariant bool) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		full := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: parse %s: %w", full, err)
		}
		syntax = append(syntax, f)
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
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %w", path, err)
	}
	return &Package{
		PkgPath:       path,
		Dir:           lp.Dir,
		Fset:          fset,
		Files:         syntax,
		Types:         tpkg,
		Info:          info,
		IsTestVariant: testVariant,
	}, nil
}

// moduleImporter resolves in-module imports from already-checked packages
// and everything else (the standard library) through the source importer.
type moduleImporter struct {
	fset     *token.FileSet
	source   types.Importer
	packages map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.packages[path]; ok {
		return pkg, nil
	}
	if from, ok := m.source.(types.ImporterFrom); ok {
		return from.ImportFrom(path, srcDir, mode)
	}
	return m.source.Import(path)
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %w", strings.Join(patterns, " "), err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("loader: decode go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// topoOrder sorts packages dependencies-first, considering only in-module
// edges (stdlib imports resolve through the source importer on demand).
func topoOrder(listed []*listedPackage, byPath map[string]*listedPackage) ([]*listedPackage, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(listed))
	var order []*listedPackage
	var visit func(lp *listedPackage) error
	visit = func(lp *listedPackage) error {
		switch state[lp.ImportPath] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("loader: import cycle through %s", lp.ImportPath)
		}
		state[lp.ImportPath] = visiting
		// Imports and in-package test imports are both acyclic in valid Go
		// (in-package test cycles are compile errors), so together they
		// order phase 1. External-test imports may legally cycle back and
		// are resolved in phase 2, after every base package is checked.
		for _, imp := range append(append([]string{}, lp.Imports...), lp.TestImports...) {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[lp.ImportPath] = done
		order = append(order, lp)
		return nil
	}
	sorted := append([]*listedPackage{}, listed...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, lp := range sorted {
		if err := visit(lp); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func modulePath(listed []*listedPackage) string {
	for _, lp := range listed {
		if lp.Module != nil {
			return lp.Module.Path
		}
	}
	return ""
}

func dedup(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
