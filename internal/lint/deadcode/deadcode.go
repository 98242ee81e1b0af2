// Package deadcode reports the functions and methods that no program of the
// module reaches. It is a whole-program check modelled on the rapid type
// analysis (RTA) of golang.org/x/tools/cmd/deadcode, run over the loader's
// type-checked packages with the standard library only.
//
// The roots are:
//   - main and init of every main package (cmd/*, examples/*);
//   - every init and every package-level var initializer;
//   - in every library package outside internal/, each exported function and
//     the exported method set of each exported type, promoted methods and
//     aliased internal types included;
//   - any function whose doc comment carries //robust:root <reason>.
//
// A function is reached when a reached non-test body or signature refers to
// it. A call through an interface reaches the same-named methods of every
// type that reached code refers to, and the method names the standard
// library calls through its own interfaces (String, Error, Len/Less/Swap,
// ...) count as called from the start.
//
// A finding is a function or method declared in a non-test file that no root
// reaches: only tests call it, or nothing does. A helper that another
// package's tests need, such as a test harness, is marked //robust:root.
package deadcode

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"robustsample/internal/lint"
	"robustsample/internal/lint/loader"
)

// Name and Doc describe the check for robustlint -list.
const (
	Name = "deadcode"
	Doc  = "every function and method is reached from a main package, an init, the public API or a //robust:root (whole-module runs only)"
)

// stdlibCalled lists the method names that the standard library invokes
// through its own interfaces (fmt, errors, sort, container/heap, encoding,
// io, flag, math/rand, go/types). A method with one of these names is
// reached as soon as its type is.
var stdlibCalled = []string{
	"As", "Error", "Format", "Get", "GoString", "Import", "ImportFrom",
	"Int63", "Is", "Len", "Less", "MarshalBinary", "MarshalJSON",
	"MarshalText", "Pop", "Push", "Read", "Seed", "Set", "String", "Swap",
	"Uint64", "UnmarshalBinary", "UnmarshalJSON", "UnmarshalText", "Unwrap",
	"Write",
}

type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *loader.Package
}

type program struct {
	decls      map[*types.Func]funcDecl
	reached    map[*types.Func]bool
	referenced map[*types.TypeName]bool
	called     map[string]bool          // method names called through an interface
	pending    map[string][]*types.Func // methods of referenced types, by name, not yet called
	queue      []*types.Func
}

// Run analyzes a whole-module load and returns one diagnostic per
// unreachable function or method, in position order. A partial load has no
// meaningful roots, so callers pass the result of loading ./... from the
// module root.
func Run(pkgs []*loader.Package) []lint.Diagnostic {
	p := &program{
		decls:      make(map[*types.Func]funcDecl),
		reached:    make(map[*types.Func]bool),
		referenced: make(map[*types.TypeName]bool),
		called:     make(map[string]bool),
		pending:    make(map[string][]*types.Func),
	}
	for _, name := range stdlibCalled {
		p.called[name] = true
	}

	var bases []*loader.Package
	for _, pkg := range pkgs {
		if !pkg.IsTestVariant {
			bases = append(bases, pkg)
		}
	}
	for _, pkg := range bases {
		for _, f := range nonTestFiles(pkg) {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						p.decls[fn] = funcDecl{fd, pkg}
					}
				}
			}
		}
	}

	for _, pkg := range bases {
		p.addRoots(pkg)
	}
	for len(p.queue) > 0 {
		fn := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		d := p.decls[fn]
		p.walk(d.pkg.Info, d.decl)
	}

	var diags []lint.Diagnostic
	for fn, d := range p.decls {
		if p.reached[fn] || isInit(d.decl) {
			continue
		}
		diags = append(diags, lint.Diagnostic{
			Pos:      d.pkg.Fset.Position(d.decl.Name.Pos()),
			Message:  fmt.Sprintf("%s is unreachable: no main package, init, public API or //robust:root reaches it", displayName(fn)),
			Analyzer: Name,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return diags
}

// addRoots seeds the worklist with pkg's roots.
func (p *program) addRoots(pkg *loader.Package) {
	pass := &lint.Pass{Fset: pkg.Fset, Files: pkg.Files}
	isMain := pkg.Types.Name() == "main"
	for _, f := range nonTestFiles(pkg) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				_, marked := pass.FuncDirective(d, "root")
				switch {
				case isInit(d):
					p.walk(pkg.Info, d)
				case fn != nil && (marked || isMain && d.Name.Name == "main" && d.Recv == nil):
					p.reach(fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							p.walk(pkg.Info, v)
						}
					}
				}
			}
		}
	}
	if isMain || isInternal(pkg.PkgPath) {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				p.reach(obj)
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			t := obj.Type()
			p.useType(t)
			if !types.IsInterface(t) {
				t = types.NewPointer(t)
			}
			ms := types.NewMethodSet(t)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); m.Exported() {
					p.useFunc(m)
				}
			}
		}
	}
}

// walk marks everything n refers to: functions are reached, interface
// methods are called by name, and types become referenced.
func (p *program) walk(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				p.useFunc(obj)
			case *types.TypeName:
				p.useType(obj.Type())
			}
		}
		return true
	})
}

func (p *program) useFunc(fn *types.Func) {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		p.call(fn.Name())
		return
	}
	p.reach(fn.Origin())
}

func (p *program) reach(fn *types.Func) {
	if _, ok := p.decls[fn]; ok && !p.reached[fn] {
		p.reached[fn] = true
		p.queue = append(p.queue, fn)
	}
}

// call records a call of name through an interface: every referenced type's
// method of that name is reached, now and when a type is referenced later.
func (p *program) call(name string) {
	if p.called[name] {
		return
	}
	p.called[name] = true
	for _, m := range p.pending[name] {
		p.reach(m)
	}
	delete(p.pending, name)
}

// useType marks the named types in t referenced, together with the types
// their declarations mention, so a value reached through a field still
// dispatches to its methods.
func (p *program) useType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			p.useType(t.TypeArgs().At(i))
		}
		origin := t.Origin()
		if p.referenced[origin.Obj()] {
			return
		}
		p.referenced[origin.Obj()] = true
		for i := 0; i < origin.NumMethods(); i++ {
			m := origin.Method(i)
			if p.called[m.Name()] {
				p.reach(m)
			} else {
				p.pending[m.Name()] = append(p.pending[m.Name()], m)
			}
		}
		p.useType(origin.Underlying())
	case *types.Pointer:
		p.useType(t.Elem())
	case *types.Slice:
		p.useType(t.Elem())
	case *types.Array:
		p.useType(t.Elem())
	case *types.Chan:
		p.useType(t.Elem())
	case *types.Map:
		p.useType(t.Key())
		p.useType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			p.useType(t.Field(i).Type())
		}
	}
}

func nonTestFiles(pkg *loader.Package) []*ast.File {
	var out []*ast.File
	for _, f := range pkg.Files {
		if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

func isInit(d *ast.FuncDecl) bool { return d.Recv == nil && d.Name.Name == "init" }

func isInternal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

// displayName renders fn as pkg.F or pkg.(*T).M.
func displayName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return name + fn.Name()
	}
	t := recv.Type()
	star := ""
	if ptr, ok := t.(*types.Pointer); ok {
		t, star = ptr.Elem(), "*"
	}
	if named, ok := t.(*types.Named); ok {
		return fmt.Sprintf("%s(%s%s).%s", name, star, named.Obj().Name(), fn.Name())
	}
	return name + fn.Name()
}
