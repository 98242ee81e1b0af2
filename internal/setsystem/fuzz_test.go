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

// checkParity demands bit-exact agreement, error and witness, between the
// incremental engine and the one-shot on the current multisets, the empty
// stream included (both return the zero Discrepancy there).
func checkParity(t *testing.T, sys SetSystem, acc *Accumulator, stream, sample []int64) {
	t.Helper()
	got, want := acc.Max(), sys.MaxDiscrepancy(stream, sample)
	if got != want {
		t.Fatalf("%s: accumulator %v != one-shot %v (stream=%v sample=%v)",
			sys.Name(), got, want, stream, sample)
	}
}

// refoldSource is one fuzzed source accumulator with the multisets it holds.
type refoldSource struct {
	acc            *Accumulator
	stream, sample []int64
}

// FuzzAccumulatorRefold pins the coordinator's refold: a target that keeps
// its layout across verdicts (ClearCounts, then MergeFrom of a random
// subset of sources) must give the same Max, error and witness, as a fresh
// Reset + MergeFrom of that subset and as the one-shot on the union, empty
// unions included. Three sources take stream, sample, evict and Reset
// operations decoded from fuzz bytes, so the target keeps slots of values
// that no folded source holds any more. Values range over [-3, 28] around
// the universe [1, 24] (probe table, flat table and the switch between
// them), and blocks of 3 slots keep splits and witness rescans in play.
func FuzzAccumulatorRefold(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0xc7, 0xc0, 0xc3})
	f.Add([]byte{0x05, 0x06, 0x07, 0x65, 0x66, 0xc7, 0xa0, 0xa1, 0xa2, 0xc7, 0xc0})
	f.Add([]byte{0x1f, 0x00, 0x10, 0x7f, 0x7f, 0x7f, 0xc7, 0x9c, 0xc7, 0xe1, 0xc5, 0xe0, 0xc7})
	// Sources over disjoint values lay out one block each. A refold that
	// leaves a source out leaves its block with no count at all: first
	// with stream mass only (the empty-sample scan over blocks holding
	// stream mass), then after a second Max has built every block's hulls.
	f.Add([]byte{0x04, 0x0d, 0x17, 0x05, 0x0e, 0x18, 0x06, 0x0f, 0x19, 0xc7, 0xc6, 0xc5, 0xc3})
	f.Add([]byte{0x64, 0x0d, 0x77, 0x65, 0x0e, 0x78, 0x66, 0x0f, 0x79, 0xc7, 0xc5, 0xc6, 0xc3, 0xc7})
	// Every value once on each source, refolds of every subset, then a
	// Reset of each source and a refold over the emptied layout.
	all := []byte{}
	for b := byte(0); b < 32; b++ {
		all = append(all, b, 0x60|b, b)
	}
	for m := byte(0); m < 8; m++ {
		all = append(all, 0xc0|m)
	}
	f.Add(append(all, 0xa0, 0x84, 0x84, 0x84, 0xc7, 0xe1, 0xc7))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		const universe = 24
		for _, sys := range []SetSystem{
			NewPrefixes(universe), NewIntervals(universe),
			NewSingletons(universe), NewSuffixes(universe),
		} {
			var srcs [3]refoldSource
			for i := range srcs {
				srcs[i].acc = sys.NewAccumulator()
				srcs[i].acc.blockB = 3
			}
			target, fresh := sys.NewAccumulator(), sys.NewAccumulator()
			target.blockB, fresh.blockB = 3, 3
			refold := func(mask byte) {
				t.Helper()
				target.ClearCounts()
				fresh.Reset()
				var stream, sample []int64
				for i := range srcs {
					if mask&(1<<i) != 0 {
						target.MergeFrom(srcs[i].acc)
						fresh.MergeFrom(srcs[i].acc)
						stream = append(stream, srcs[i].stream...)
						sample = append(sample, srcs[i].sample...)
					}
				}
				got := target.Max()
				if want := fresh.Max(); got != want {
					t.Fatalf("%s: refold of subset %03b %v != fresh merge %v", sys.Name(), mask, got, want)
				}
				checkParity(t, sys, target, stream, sample)
			}
			for i, b := range data {
				x := int64(b&0x1f) - 3 // value in [-3, 28]
				src := &srcs[i%len(srcs)]
				switch op := b >> 5; op {
				case 0, 1: // AddStream
					src.stream = append(src.stream, x)
					src.acc.AddStream(x)
				case 2: // AddSample
					src.sample = append(src.sample, x)
					src.acc.AddSample(x)
				case 3: // AddStream and AddSample: a filling reservoir
					src.stream = append(src.stream, x)
					src.sample = append(src.sample, x)
					src.acc.AddStream(x)
					src.acc.AddSample(x)
				case 4: // evict one sample element, or Reset the source
					if x%4 == 1 {
						src.acc.Reset()
						src.stream, src.sample = src.stream[:0], src.sample[:0]
					} else if len(src.sample) > 0 {
						j := i % len(src.sample)
						src.acc.RemoveSample(src.sample[j])
						src.sample[j] = src.sample[len(src.sample)-1]
						src.sample = src.sample[:len(src.sample)-1]
					}
				case 5: // place the source's pending slots
					src.acc.Max()
				case 6: // refold the subset named by the low three bits
					refold(b & 7)
				default: // a new stream: the target drops its layout
					target.Reset()
				}
			}
			refold(7)
		}
	})
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
