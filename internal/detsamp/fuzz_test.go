package detsamp

import "testing"

// ErrorBound returns the deterministic worst-case relative rank error of
// the current summary: L/(2B) over the occupied levels.
func (m *MergeReduce) ErrorBound() float64 {
	return float64(len(m.levels)) / (2 * float64(m.B))
}

// FuzzMergeReduceBound checks, on arbitrary insertion orders, that the
// deterministic summary conserves weight and stays within its own
// worst-case error bound.
func FuzzMergeReduceBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 254, 253, 252})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		m, newErr := New(8)
		if newErr != nil {
			t.Fatal(newErr)
		}
		stream := make([]int64, 0, len(data))
		for _, b := range data {
			v := int64(b) + 1
			stream = append(stream, v)
			m.Insert(v)
		}
		total := int64(0)
		for _, wv := range m.WeightedValues() {
			total += wv.Weight
		}
		if total != int64(len(data)) {
			t.Fatalf("weight %d != n %d", total, len(data))
		}
		err := PrefixDiscrepancy(stream, m.WeightedValues())
		// ErrorBound is the worst case over the occupied levels; allow
		// tiny float slack.
		if err > m.ErrorBound()+1e-9 {
			t.Fatalf("error %v exceeds deterministic bound %v", err, m.ErrorBound())
		}
	})
}
