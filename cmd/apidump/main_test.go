package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dump renders the API of a one-file package holding src.
func dump(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dumpPackage(&out, "example.com/p", dir); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestPromotedMethods pins the embedded-core case: an exported type lists
// the exported methods it promotes from unexported embedded types, at any
// depth, under its own receiver and with the core's type parameters
// replaced by the embedding's type arguments. Methods the outer type
// declares, and unexported ones, are not promoted.
func TestPromotedMethods(t *testing.T) {
	const src = `package p

type core[T any, S any] struct{ inner S }

func (c *core[T, S]) View() []T       { return nil }
func (c *core[T, S]) Inner() S        { return c.inner }
func (c *core[T, S]) Len() int        { return 0 }
func (c *core[T, S]) reset()          {}
func (c core[U, V]) Peek(x U) (V, bool) { var v V; return v, false }

type offers[T any, S any] struct{ core[T, S] }

func (o *offers[T, S]) Offer(x T) bool { return false }

// Sample promotes through offers into core.
type Sample[T any] struct {
	offers[T, *[]int64]
	K int
}

func (s *Sample[T]) Len() int { return 1 }

type Plain struct{ core[string, int] }
`
	const want = `== example.com/p
type Plain struct{ unexportedFields }
func (c *Plain) Inner() int
func (c *Plain) Len() int
func (c Plain) Peek(x string) (int, bool)
func (c *Plain) View() []string
type Sample[T any] struct {
        K       int
        unexportedFields
}
func (c *Sample[T]) Inner() *[]int64
func (s *Sample[T]) Len() int
func (o *Sample[T]) Offer(x T) bool
func (c Sample[T]) Peek(x T) (*[]int64, bool)
func (c *Sample[T]) View() []T

`
	if got := dump(t, src); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromotionRules checks that the dump promotes exactly the methods Go's
// selector rule promotes. Each case's want lists the dump's lines after the
// package header, types elided.
func TestPromotionRules(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"through a pointer embedding", `
type core struct{}
func (c *core) Len() int { return 0 }
type Outer struct{ *core }`, "func (c *Outer) Len() int"},

		{"unnamed receivers stay unnamed", `
type core struct{}
func (*core) Reset()   {}
func (core) Peek() int { return 0 }
type Outer struct{ core }`, "func (Outer) Peek() int\nfunc (*Outer) Reset()"},

		{"an exported embedded type is not expanded", `
type Base struct{}
func (b *Base) Len() int { return 0 }
type Outer struct{ Base }`, "func (b *Base) Len() int"},

		{"the shallowest method wins", `
type deep struct{}
func (deep) Name() string { return "deep" }
func (deep) Size() int    { return 0 }
type mid struct{ deep }
func (mid) Name() string  { return "mid" }
type Outer struct{ mid }`, "func (Outer) Name() string\nfunc (Outer) Size() int"},

		{"an ambiguous selector is not promoted", `
type left struct{}
func (left) Name() string  { return "" }
func (left) Left()         {}
type right struct{}
func (right) Name() string { return "" }
type Outer struct{ left; right }`, "func (Outer) Left()"},

		{"a field shadows a method", `
type core struct{}
func (core) Size() int { return 0 }
func (core) Cap() int  { return 0 }
type Outer struct {
	core
	Size int
}`, "func (Outer) Cap() int"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, line := range strings.Split(dump(t, "package p\n"+tc.src), "\n")[1:] {
				if strings.HasPrefix(line, "func ") {
					got = append(got, line)
				}
			}
			if strings.Join(got, "\n") != tc.want {
				t.Fatalf("methods:\n%s\nwant:\n%s", strings.Join(got, "\n"), tc.want)
			}
		})
	}
}
