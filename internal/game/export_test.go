package game

// AllRounds returns the exhaustive schedule 1..n, the literal Figure 2
// verdict; use only for short streams (the check costs O(i log i) per
// round).
func AllRounds(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
