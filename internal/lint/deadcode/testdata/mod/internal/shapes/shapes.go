// Package shapes holds the corpus's unexported-API cases.
package shapes

// Shape's Area is called through the interface only.
type Shape interface{ Area() float64 }

// Circle is referenced by the program, so the interface call reaches it.
type Circle struct{ R float64 }

func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Square is referenced by tests only, so no interface call reaches it.
type Square struct{ S float64 }

func (q Square) Area() float64 { return q.S * q.S } // want `shapes\.\(Square\)\.Area is unreachable`

// Label shares only the method name with Shape. The program refers to
// Label, and the name is enough to reach the method.
type Label struct{}

func (Label) Area() string { return "label" }

// Health is exported from lib under an alias, so its methods are public.
type Health struct{ Up bool }

func (h Health) OK() bool { return h.Up }

// OnlyTests is called by this package's tests alone.
func OnlyTests() int { return 1 } // want `shapes\.OnlyTests is unreachable`

// BruteArea is an oracle that another package's tests compare against.
//
//robust:root oracle of the lib tests
func BruteArea(r float64) float64 { return 3 * r * r }

var table = build()

func build() []int { return []int{1} }

func init() { register() }

func register() { table = append(table, 2) }
