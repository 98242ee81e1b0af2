package setsystem

import (
	"math"
	"testing"
)

// decodeSeq turns fuzz bytes into a sequence over [1, 16].
func decodeSeq(data []byte) []int64 {
	out := make([]int64, 0, len(data))
	for _, b := range data {
		out = append(out, int64(b%16)+1)
	}
	return out
}

// FuzzIntervalDiscrepancyMatchesBrute cross-checks the O((n+s) log) interval
// discrepancy against the quadratic brute-force oracle on arbitrary inputs.
func FuzzIntervalDiscrepancyMatchesBrute(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{7, 7, 7, 7}, []byte{7, 9})
	f.Add([]byte{0, 255, 128}, []byte{})
	f.Fuzz(func(t *testing.T, streamRaw, sampleRaw []byte) {
		if len(streamRaw) > 64 || len(sampleRaw) > 32 {
			return
		}
		stream := decodeSeq(streamRaw)
		sample := decodeSeq(sampleRaw)
		fast := NewIntervals(16).MaxDiscrepancy(stream, sample)
		brute := BruteMaxDiscrepancy(16, stream, sample)
		if math.Abs(fast.Err-brute.Err) > 1e-9 {
			t.Fatalf("fast %v != brute %v (stream=%v sample=%v)",
				fast.Err, brute.Err, stream, sample)
		}
		if fast.Err < 0 || fast.Err > 1+1e-12 {
			t.Fatalf("discrepancy out of [0,1]: %v", fast.Err)
		}
		// Witness must achieve the reported error.
		if len(stream) > 0 {
			got := math.Abs(Density(stream, fast.Lo, fast.Hi) - Density(sample, fast.Lo, fast.Hi))
			if math.Abs(got-fast.Err) > 1e-9 {
				t.Fatalf("witness [%d,%d] achieves %v, reported %v",
					fast.Lo, fast.Hi, got, fast.Err)
			}
		}
	})
}

// FuzzAccumulatorParity drives a random AddStream/AddSample/RemoveSample/Max
// sequence decoded from fuzz bytes through the incremental block/hull engine
// and demands bit-exact parity — error AND witness — with the one-shot
// MaxDiscrepancy, for all four set systems. Small forced block lengths keep
// the multi-block machinery (offset pass, hull queries, splits, witness
// rescans) in play even on short inputs. Values range over [-3, 28] around
// the universe [1, 24], so values <= 0 and > U (which stay in the probe
// table) mix with values in [0, U], and a sequence's 25th distinct value
// switches the index from the probe table to the flat table mid-sequence.
func FuzzAccumulatorParity(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0xc4, 0x05, 0x46})
	f.Add([]byte{0x81, 0x81, 0x81, 0x41, 0x01})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x3c, 0xbd, 0xbd})
	f.Add([]byte{})
	// Every value once, with checkpoints before, at and after the switch.
	all := []byte{0xe0}
	for b := byte(0); b < 32; b++ {
		all = append(all, b, 0x80|(31-b))
		if b%8 == 7 || b == 24 {
			all = append(all, 0xff)
		}
	}
	f.Add(append(all, 0xc3, 0xc9, 0x05, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		const universe = 24
		systems := []SetSystem{
			NewPrefixes(universe), NewIntervals(universe),
			NewSingletons(universe), NewSuffixes(universe),
		}
		for _, sys := range systems {
			acc := sys.NewAccumulator()
			acc.blockB = 3
			var stream, sample []int64
			for i, b := range data {
				x := int64(b&0x1f) - 3 // value in [-3, 28]
				switch op := b >> 5; {
				case op <= 3: // AddStream (weighted: streams dominate)
					stream = append(stream, x)
					acc.AddStream(x)
				case op <= 5: // AddSample
					sample = append(sample, x)
					acc.AddSample(x)
				case op == 6: // RemoveSample of an existing element
					if len(sample) > 0 {
						j := i % len(sample)
						acc.RemoveSample(sample[j])
						sample[j] = sample[len(sample)-1]
						sample = sample[:len(sample)-1]
					}
				default: // checkpoint
					checkParity(t, sys, acc, stream, sample)
				}
			}
			checkParity(t, sys, acc, stream, sample)
		}
	})
}

// checkParity demands bit-exact agreement between the incremental engine and
// the one-shot on the current multisets. The empty stream is the one pinned
// divergence: both report error 0, but the accumulator returns the zero
// Discrepancy while the one-shot suffix system reports a degenerate [1, N]
// witness — so witnesses are only compared once the stream is non-empty.
func checkParity(t *testing.T, sys SetSystem, acc *Accumulator, stream, sample []int64) {
	t.Helper()
	got, want := acc.Max(), sys.MaxDiscrepancy(stream, sample)
	if len(stream) == 0 {
		if got.Err != want.Err {
			t.Fatalf("%s: empty-stream err %v != one-shot %v", sys.Name(), got.Err, want.Err)
		}
		return
	}
	if got != want {
		t.Fatalf("%s: accumulator %v != one-shot %v (stream=%v sample=%v)",
			sys.Name(), got, want, stream, sample)
	}
}

// FuzzPrefixDiscrepancyMatchesBrute is the prefix-system analogue.
func FuzzPrefixDiscrepancyMatchesBrute(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2})
	f.Add([]byte{9}, []byte{})
	f.Fuzz(func(t *testing.T, streamRaw, sampleRaw []byte) {
		if len(streamRaw) > 64 || len(sampleRaw) > 32 {
			return
		}
		stream := decodeSeq(streamRaw)
		sample := decodeSeq(sampleRaw)
		fast := NewPrefixes(16).MaxDiscrepancy(stream, sample)
		brute := BrutePrefixDiscrepancy(16, stream, sample)
		if math.Abs(fast.Err-brute.Err) > 1e-9 {
			t.Fatalf("fast %v != brute %v (stream=%v sample=%v)",
				fast.Err, brute.Err, stream, sample)
		}
	})
}
