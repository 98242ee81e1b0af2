package shapes

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 || (Square{S: 2}).Area() != 4 {
		t.Fatal("corpus arithmetic")
	}
}
