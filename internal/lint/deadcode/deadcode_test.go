package deadcode_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robustsample/internal/lint/analysistest"
	"robustsample/internal/lint/deadcode"
	"robustsample/internal/lint/loader"
)

func TestDeadcode(t *testing.T) {
	pkgs, err := loader.Load("testdata/mod", "./...")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Expect(t, "testdata/mod", deadcode.Run(pkgs))
}

// mainFile is a module holding one main.go whose package clause is implied.
func mainFile(src string) map[string]string {
	return map[string]string{"main.go": "package main\n" + src}
}

// TestDeadcodeRules checks one rule per case on a module of its own, beyond
// what the corpus covers. want lists every finding in the order Run reports
// them, which is position order.
func TestDeadcodeRules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string // module-relative path -> source
		want  string            // space-separated finding names
	}{
		{"method values and expressions reach the method", mainFile(`
type t struct{}
func (t) a()  {}
func (*t) b() {}
func (t) c()  {}
func main()   { f, g := t{}.a, (*t).b; f(); g(nil) }`), "main.(t).c"},

		{"generic code is reached through its origin", mainFile(`
func id[T any](x T) T { return x }
type box[T any] struct{ v T }
func (b box[T]) get() T  { return b.v }
func (b box[T]) put(v T) {}
func main()              { println(id(1), box[int]{2}.get()) }`), "main.(box).put"},

		{"recursion does not reach itself", mainFile(`
func main()          {}
func loop(n int) int { return loop(n - 1) }
func ping()          { pong() }
func pong()          { ping() }`), "main.loop main.ping main.pong"},

		{"method names the standard library calls are reached with their type", mainFile(`
type shown struct{}
func (shown) String() string { return "" }
func (shown) Len() int       { return 0 }
func (shown) label() string  { return "" }
type hidden struct{}
func (hidden) String() string { return "" }
func main()                   { _ = shown{} }`), "main.(shown).label main.(hidden).String"},

		{"fields and their type arguments make types referenced", mainFile(`
type speaker interface{ speak() }
type dog struct{}
func (dog) speak() {}
type bird struct{}
func (bird) speak() {}
type cat struct{}
func (cat) speak() {}
type cage[T any] struct{ pets []T }
type zoo struct {
	keeper dog
	aviary cage[bird]
}
func main() { var s speaker = zoo{}.keeper; s.speak() }`), "main.(cat).speak"},

		{"a reached signature references its types", mainFile(`
type runner interface{ run() }
type job struct{}
func (*job) run()    {}
type idle struct{}
func (*idle) run()   {}
func start(j *job)   { var r runner = j; r.run() }
func main()          { start(nil) }`), "main.(*idle).run"},

		{"embedded interfaces and promoted methods dispatch", mainFile(`
type namer interface{ name() string }
type labeler interface{ namer }
type base struct{}
func (base) name() string { return "" }
type item struct{ base }
func main() { var l labeler = item{}; println(l.name()) }`), ""},

		{"a public package roots its exported API only", map[string]string{"lib/lib.go": `package lib
func Exported()   {}
func unexported() {}
type T struct{}
func (T) Method() {}
func (T) method() {}
type hidden struct{}
func (hidden) Method() {}`}, "lib.unexported lib.(T).method lib.(hidden).Method"},

		{"an internal package roots nothing", map[string]string{
			"main.go":              "package main\nimport \"m/internal/in\"\nfunc main() { _ = in.T{} }",
			"internal/in/in.go":    "package in\nfunc Exported() {}\ntype T struct{}\nfunc (T) Method() {}",
			"internal/in/other.go": "package in\nfunc Other() {}",
		}, "in.Exported in.(T).Method in.Other"},

		{"an exported interface calls its methods by name", map[string]string{
			"main.go":               "package main\nimport \"m/internal/impl\"\nfunc main() { _ = impl.Box{} }",
			"lib/lib.go":            "package lib\ntype Sizer interface{ Size() int }",
			"internal/impl/impl.go": "package impl\ntype Box struct{}\nfunc (Box) Size() int { return 1 }\ntype Bag struct{}\nfunc (Bag) Size() int { return 2 }",
		}, "impl.(Bag).Size"},

		{"only a main package's main function is a root", mainFile(`
type app struct{}
func (app) main() {}
func Exported()   {}
func main()       {}`), "main.(app).main main.Exported"},

		{"test files neither reach nor get reported", map[string]string{
			"internal/in/in.go": "package in\ntype T struct{}\nfunc (T) Method() {}",
			"lib/lib.go":        "package lib\nfunc Exported() {}\nfunc onlyTests() {}",
			"lib/lib_test.go":   "package lib\nfunc helper() { onlyTests() }",
			"lib/x_test.go":     "package lib_test\nimport (\"m/internal/in\"; \"m/lib\")\ntype Fixture struct{ in.T }\nfunc helper() { lib.Exported() }",
		}, "in.(T).Method lib.onlyTests"},

		{"a root directive marks a method", mainFile(`
type oracle struct{}
// brute is the reference other packages' tests compare against.
//
//robust:root oracle of other packages' tests
func (oracle) brute() {}
func (oracle) fast()  {}
func main()           {}`), "main.(oracle).fast"},

		{"a generic public type roots its promoted methods", map[string]string{"lib/lib.go": `package lib
type core[T any] struct{ xs []T }
func (c *core[T]) Size() int { return len(c.xs) }
func (c *core[T]) grow()     {}
type Sample[T any] struct{ core[T] }
func (s *Sample[T]) K() int  { return 0 }`}, "lib.(*core).grow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.files["go.mod"] = "module m\n\ngo 1.22\n"
			for name, src := range tc.files {
				path := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pkgs, err := loader.Load(dir, "./...")
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range deadcode.Run(pkgs) {
				name, _, _ := strings.Cut(d.Message, " is unreachable")
				got = append(got, name)
			}
			if strings.Join(got, " ") != tc.want {
				t.Fatalf("findings %q, want %q", got, tc.want)
			}
		})
	}
}
