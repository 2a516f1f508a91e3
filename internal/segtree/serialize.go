package segtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
)

// Serialization: a compact snapshot format for read-mostly indexes. The
// stream stores the configuration and the sorted key/value sequence;
// loading bulk-builds the tree, so a restored index comes back with
// completely filled, freshly linearized nodes (the §3.2 initial-filling
// fast path). Values are encoded by a caller-supplied codec since V is
// generic.
//
// Layout (all integers little-endian):
//
//	magic "SGT1" | width u8 | signed u8 | layout u8 | evaluator u8
//	leafCap u32 | branchCap u32 | count u64
//	count × ( key lanes (width bytes) | value )
//
// Bit 7 of the layout byte is the lane policy (set: NarrowLanes), so a
// stream written before the policy existed reads back as KeyLanes, which
// wrote it. The keys are written at their full width either way.

var magic = [4]byte{'S', 'G', 'T', '1'}

// narrowBit marks a NarrowLanes tree in the layout byte.
const narrowBit = 0x80

// Serialize writes a snapshot of the tree. encodeValue writes one value
// to w; it must produce a format decodeValue can read back.
func (t *Tree[K, V]) Serialize(w io.Writer, encodeValue func(io.Writer, V) error) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	width := keys.Width[K]()
	signed := byte(0)
	if keys.Signed[K]() {
		signed = 1
	}
	layout := byte(t.cfg.Layout)
	if t.cfg.Lanes == kary.NarrowLanes {
		layout |= narrowBit
	}
	header := []byte{byte(width), signed, layout, byte(t.cfg.Evaluator)}
	if _, err := bw.Write(header); err != nil {
		return err
	}
	var fixed [16]byte
	binary.LittleEndian.PutUint32(fixed[0:], uint32(t.cfg.LeafCap))
	binary.LittleEndian.PutUint32(fixed[4:], uint32(t.cfg.BranchCap))
	binary.LittleEndian.PutUint64(fixed[8:], uint64(t.Len()))
	if _, err := bw.Write(fixed[:]); err != nil {
		return err
	}
	keyBuf := make([]byte, width)
	var err error
	t.Ascend(func(k K, v V) bool {
		keys.Put(keyBuf, k)
		if _, err = bw.Write(keyBuf); err != nil {
			return false
		}
		if err = encodeValue(bw, v); err != nil {
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Deserialize restores a tree written by Serialize. decodeValue reads one
// value from r.
func Deserialize[K keys.Key, V any](r io.Reader, decodeValue func(io.Reader) (V, error)) (*Tree[K, V], error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("segtree: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("segtree: bad magic %q", m)
	}
	var header [4]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("segtree: reading header: %w", err)
	}
	width := keys.Width[K]()
	if int(header[0]) != width {
		return nil, fmt.Errorf("segtree: stream has %d-byte keys, want %d", header[0], width)
	}
	signed := byte(0)
	if keys.Signed[K]() {
		signed = 1
	}
	if header[1] != signed {
		return nil, fmt.Errorf("segtree: stream key signedness mismatch")
	}
	layout, lanes := header[2]&^narrowBit, kary.KeyLanes
	if header[2]&narrowBit != 0 {
		lanes = kary.NarrowLanes
	}
	if layout > byte(kary.DepthFirst) {
		return nil, fmt.Errorf("segtree: unknown layout byte %#x", header[2])
	}
	if header[3] > byte(bitmask.Popcount) {
		return nil, fmt.Errorf("segtree: unknown evaluator %d", header[3])
	}
	var fixed [16]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("segtree: reading sizes: %w", err)
	}
	cfg := Config{
		LeafCap:   int(binary.LittleEndian.Uint32(fixed[0:])),
		BranchCap: int(binary.LittleEndian.Uint32(fixed[4:])),
		Layout:    kary.Layout(layout),
		Evaluator: bitmask.Evaluator(header[3]),
		Lanes:     lanes,
	}
	if err := spec[K](cfg).Check(); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(fixed[8:])
	const maxReasonable = 1 << 40
	if count > maxReasonable {
		return nil, fmt.Errorf("segtree: implausible item count %d", count)
	}
	// The count is untrusted until the items arrive: preallocate at most
	// maxPrealloc of them and let append grow the rest.
	const maxPrealloc = 1 << 16
	ks := make([]K, 0, min(count, maxPrealloc))
	vs := make([]V, 0, min(count, maxPrealloc))
	keyBuf := make([]byte, width)
	var prev K
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, keyBuf); err != nil {
			return nil, fmt.Errorf("segtree: reading key %d: %w", i, err)
		}
		k := keys.Get[K](keyBuf)
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("segtree: corrupt stream: keys not ascending at item %d", i)
		}
		prev = k
		v, err := decodeValue(br)
		if err != nil {
			return nil, fmt.Errorf("segtree: reading value %d: %w", i, err)
		}
		ks = append(ks, k)
		vs = append(vs, v)
	}
	return BulkLoad[K, V](cfg, ks, vs), nil
}
