package kary

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/invariants"
	"repro/internal/keys"
)

// Lane encoding. A slot holds its key's distance from the tree's base,
// keys.OrderedBits(x) − base, in w little-endian bytes with the lane's
// sign bit flipped: the paper's §2.1 realignment, so the signed lane
// compares of package simd order the lanes as unsigned distances. At
// K's width, base 0, this is exactly keys.Put's lane.

// laneMax returns the largest distance a lane of w bytes holds.
func laneMax(w int) uint64 { return ^uint64(0) >> (64 - 8*uint(w)) }

// lane returns the distance from base that slot i holds.
func (t *linear) lane(i int) uint64 {
	b := t.data
	switch t.w {
	case 1:
		return uint64(b[i] ^ 0x80)
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[2*i:]) ^ 0x8000)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[4*i:]) ^ 0x8000_0000)
	default:
		return binary.LittleEndian.Uint64(b[8*i:]) ^ 1<<63
	}
}

// setLane stores the distance d from base, which fits the lane, in
// slot i.
func (t *linear) setLane(i int, d uint64) {
	b := t.data
	switch t.w {
	case 1:
		b[i] = byte(d) ^ 0x80
	case 2:
		binary.LittleEndian.PutUint16(b[2*i:], uint16(d)^0x8000)
	case 4:
		binary.LittleEndian.PutUint32(b[4*i:], uint32(d)^0x8000_0000)
	default:
		binary.LittleEndian.PutUint64(b[8*i:], d^1<<63)
	}
}

// key returns the key slot i holds.
//
//simdtree:hotpath
func (t *Tree[K]) key(i int) K { return keys.FromOrderedBits[K](t.base + t.lane(i)) }

// fits reports whether x is a distance from base a lane holds.
func (t *Tree[K]) fits(x K) bool {
	o := keys.OrderedBits(x)
	return o >= t.base && o-t.base <= laneMax(int(t.w))
}

// lane is the type of one stored lane, by width.
type lane interface {
	uint8 | uint16 | uint32 | uint64
}

// lanesOf is the storage of stored slots as one L per slot. Its
// elements are realigned lanes, not keys: the in-place updates only copy
// them, and a key enters or leaves the storage through setLane and lane.
// An L is exactly the lane width, so each lane moves with one typed load
// and store. The view is sound because every storage comes from
// sizeClassed and is a whole number of 16-byte registers: an allocation
// of at least 16 bytes gets a size class, whose objects sit at multiples
// of the class size (a multiple of 8) from a page-aligned span, or a large
// object's own pages. So the storage starts 8-byte aligned and holds a
// whole number of lanes. The view's bounds checks keep every slot an
// update touches below stored.
//
//simdtree:hotpath
func lanesOf[L lane](data []byte, stored int) []L {
	var z L
	p := unsafe.SliceData(data)
	if invariants.Enabled {
		invariants.Assertf(uintptr(unsafe.Pointer(p))%8 == 0, "kary: key storage at %p is not 8-byte aligned", p)
		invariants.Assertf(len(data) == stored*int(unsafe.Sizeof(z)),
			"kary: %d storage bytes for %d stored %d-byte slots", len(data), stored, unsafe.Sizeof(z))
	}
	return unsafe.Slice((*L)(unsafe.Pointer(p)), stored)
}

// shiftLanes moves the lanes along path one position: toward its end
// when up (an insert opens path[0]), else toward its start (a delete
// closes path[0]).
//
//simdtree:hotpath
func shiftLanes[L lane](data []byte, stored int, path []int32, up bool) {
	v := lanesOf[L](data, stored)
	if up {
		for i := len(path) - 1; i > 0; i-- {
			v[path[i]] = v[path[i-1]]
		}
		return
	}
	for i := 1; i < len(path); i++ {
		v[path[i-1]] = v[path[i]]
	}
}

// padLanes copies the lane of slot top into every slot of pads below
// the stored count.
//
//simdtree:hotpath
func padLanes[L lane](data []byte, stored, top int, pads []int32) {
	v := lanesOf[L](data, stored)
	pad := v[top]
	for _, p := range pads {
		if int(p) < len(v) {
			v[p] = pad
		}
	}
}

// shift runs shiftLanes at the tree's lane width.
//
//simdtree:hotpath
func (t *linear) shift(path []int32, up bool) {
	switch t.w {
	case 1:
		shiftLanes[uint8](t.data, t.stored, path, up)
	case 2:
		shiftLanes[uint16](t.data, t.stored, path, up)
	case 4:
		shiftLanes[uint32](t.data, t.stored, path, up)
	default:
		shiftLanes[uint64](t.data, t.stored, path, up)
	}
}

// pad runs padLanes at the tree's lane width.
//
//simdtree:hotpath
func (t *linear) pad(top int, pads []int32) {
	switch t.w {
	case 1:
		padLanes[uint8](t.data, t.stored, top, pads)
	case 2:
		padLanes[uint16](t.data, t.stored, top, pads)
	case 4:
		padLanes[uint32](t.data, t.stored, top, pads)
	default:
		padLanes[uint64](t.data, t.stored, top, pads)
	}
}
