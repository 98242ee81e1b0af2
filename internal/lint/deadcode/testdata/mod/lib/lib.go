// Package lib is the corpus's public API.
package lib

import "deadmod/internal/shapes"

// Health exports an internal type, methods included.
type Health = shapes.Health

// Tally exports the methods of its unexported embedded counter.
type Tally struct{ counter }

type counter struct{ n int }

func (c *counter) Count() int { return c.n }

func (c *counter) reset() { c.n = 0 } // want `lib\.\(\*counter\)\.reset is unreachable`

// Version is public, so it is a root.
func Version() string { return "v1" }
