// Package snapshot provides the deterministic binary primitives shared by
// every Snapshot/Restore codec in the repository (samplers, discrepancy
// accumulators, the sharded engine, and the public sketch surface built on
// them).
//
// The encoding is deliberately boring: fixed-width little-endian words, no
// compression, no reflection. Determinism is a contract, not an accident —
// the same logical state always serializes to the same bytes, so
// Snapshot -> Restore -> Snapshot round-trips bit-identically, checkpoint
// files diff cleanly, and a coordinator can content-address shard states.
// Framing (magic, version, kind) is owned by the outermost codec; the
// helpers here encode raw fields only.
package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// ErrCorrupt is returned when a snapshot is truncated or structurally
// invalid. Codecs wrap it with context; errors.Is(err, ErrCorrupt) holds for
// every decode failure.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated data")

// AppendUint64 appends v little-endian.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendInt64 appends v little-endian (two's complement).
func AppendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// AppendFloat64 appends the IEEE-754 bits of v. Bit patterns (including the
// sign of zero and NaN payloads) round-trip exactly.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendInt64Slice appends len(xs) followed by each element.
func AppendInt64Slice(buf []byte, xs []int64) []byte {
	buf = AppendUint64(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = AppendInt64(buf, x)
	}
	return buf
}

// AppendFloat64Slice appends len(xs) followed by each element's bits.
func AppendFloat64Slice(buf []byte, xs []float64) []byte {
	buf = AppendUint64(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = AppendFloat64(buf, x)
	}
	return buf
}

// AppendBytes appends len(b) followed by the raw bytes, so variable-length
// blobs (nested snapshot frames, most notably) self-delimit inside an outer
// frame.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

// Reader consumes a snapshot byte stream. The zero value over a data slice
// is ready to use; the first decode error sticks and every subsequent read
// returns zero values, so codecs can decode a whole frame and check Err
// once.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the sticky decode error, nil if all reads so far succeeded.
func (r *Reader) Err() error { return r.err }

// Rest returns the unconsumed bytes.
func (r *Reader) Rest() []byte { return r.data }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.data) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = ErrCorrupt
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

// Uint64 reads one little-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads one little-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads one IEEE-754 value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte, failing on anything but 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.err = ErrCorrupt
		return false
	}
}

// sliceLen validates a decoded element count against the remaining bytes
// (elemSize bytes per element), preventing huge bogus allocations from
// corrupt input.
func (r *Reader) sliceLen(elemSize int) int {
	n := r.Uint64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)/elemSize) {
		r.err = ErrCorrupt
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string written by AppendBytes; a zero
// length yields nil. The returned slice is a copy, safe to retain.
func (r *Reader) Bytes() []byte {
	n := r.Uint64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.err = ErrCorrupt
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.take(int(n))
	return append([]byte(nil), b...)
}

// Int64Slice reads a length-prefixed []int64; a zero length yields nil.
func (r *Reader) Int64Slice() []int64 { return r.AppendInt64Slice(nil) }

// AppendInt64Slice reads a length-prefixed []int64 and appends it to dst,
// growing dst at most once, so a decoder that passes its previous buffer
// back as dst[:0] reuses that buffer's capacity. On error dst is returned
// unchanged.
func (r *Reader) AppendInt64Slice(dst []int64) []int64 {
	n := r.sliceLen(8)
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Int64())
	}
	return dst
}

// Float64Slice reads a length-prefixed []float64; a zero length yields nil.
func (r *Reader) Float64Slice() []float64 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}
