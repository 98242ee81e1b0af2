package main

import "testing"

// TestCheckChunk: -chunk takes the chunk the games run at, so values the
// games would clamp are rejected.
func TestCheckChunk(t *testing.T) {
	for _, tc := range []struct {
		chunk int
		ok    bool
	}{
		{0, false},
		{-1, false},
		{1, true},
		{8192, true},
	} {
		if err := checkChunk(tc.chunk); (err == nil) != tc.ok {
			t.Errorf("checkChunk(%d) = %v, want accepted=%v", tc.chunk, err, tc.ok)
		}
	}
}
