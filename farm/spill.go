package farm

import (
	"fmt"
	"os"
	"path/filepath"
)

// spillFile is a per-shard append-only segment file holding evicted
// tenants' snapshot payloads. Records are self-checking — an FNV-1a 64
// checksum prefixes each payload — so a torn write, bit rot or a stale
// offset surfaces as ErrBadSnapshot at hydration instead of corrupting a
// tenant silently. The file is a cache tier, not a durability log: it is
// truncated on open and deleted on close.
type spillFile struct {
	f    *os.File
	path string
	size int64
	live int64
	dead int64
	rec  []byte // the record buffer write and read reuse
}

// spillHeader is the per-record overhead: an 8-byte checksum.
const spillHeader = 8

// fnv64a is FNV-1a over b (hand-rolled so the checksum stays allocation-
// and dependency-free).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// openSpill creates the shard's segment file inside dir.
func openSpill(dir string, shard int) (*spillFile, error) {
	path := filepath.Join(dir, fmt.Sprintf("farm-shard-%04d.spill", shard))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return &spillFile{f: f, path: path}, nil
}

// record returns the record buffer resized to hold an n-byte payload.
func (sp *spillFile) record(n int) []byte {
	if cap(sp.rec) < spillHeader+n {
		sp.rec = make([]byte, spillHeader+n)
	}
	return sp.rec[:spillHeader+n]
}

// write appends one checksummed record and returns its offset and length
// (payload length, excluding the header).
func (sp *spillFile) write(payload []byte) (off int64, n int32, err error) {
	rec := sp.record(len(payload))
	sum := fnv64a(payload)
	for i := 0; i < spillHeader; i++ {
		rec[i] = byte(sum >> (8 * i))
	}
	copy(rec[spillHeader:], payload)
	off = sp.size
	if _, err := sp.f.WriteAt(rec, off); err != nil {
		return 0, 0, err
	}
	sp.size += int64(len(rec))
	sp.live += int64(len(rec))
	return off, int32(len(payload)), nil
}

// read returns the payload of the record at off, verifying its checksum.
// The payload lives in the record buffer, so it is valid until the next
// write or read. Corrupt or truncated records fail with ErrBadSnapshot.
func (sp *spillFile) read(off int64, n int32) ([]byte, error) {
	rec := sp.record(int(n))
	if _, err := sp.f.ReadAt(rec, off); err != nil {
		return nil, fmt.Errorf("%w: spill record at %d: %v", ErrBadSnapshot, off, err)
	}
	want := uint64(0)
	for i := 0; i < spillHeader; i++ {
		want |= uint64(rec[i]) << (8 * i)
	}
	payload := rec[spillHeader:]
	if fnv64a(payload) != want {
		return nil, fmt.Errorf("%w: spill record at %d: checksum mismatch", ErrBadSnapshot, off)
	}
	return payload, nil
}

// retire marks the record of payload length n dead. When no live records
// remain the file is truncated, reclaiming the space.
func (sp *spillFile) retire(n int32) {
	rec := int64(spillHeader + int(n))
	sp.live -= rec
	sp.dead += rec
	if sp.live <= 0 && sp.size > 0 {
		if sp.f.Truncate(0) == nil {
			sp.size = 0
			sp.live = 0
			sp.dead = 0
		}
	}
}

// close closes and removes the segment file.
func (sp *spillFile) close() error {
	err := sp.f.Close()
	if rmErr := os.Remove(sp.path); err == nil {
		err = rmErr
	}
	return err
}
