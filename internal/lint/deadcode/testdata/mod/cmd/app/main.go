// Command app is the corpus's only program.
package main

import (
	"fmt"

	"deadmod/internal/shapes"
	"deadmod/lib"
)

func main() {
	var s shapes.Shape = shapes.Circle{R: 1}
	fmt.Println(s.Area(), shapes.Label{}, lib.Version())
}
