// Package keys provides the generic integer-key codec shared by every tree
// in this repository.
//
// The paper's SIMD compare sequence operates on signed lanes only (SSE2 has
// no unsigned greater-than). Unsigned keys are therefore "realigned" into
// signed order by flipping the sign bit, which is equivalent to the paper's
// preceding subtraction of the signed maximum (§2.1). This package hides the
// realignment: Put stores the realigned little-endian lane bytes and Get
// restores the original value, so tree code never sees the bias.
package keys

import (
	"errors"
	"unsafe"
)

// Key is the set of fixed-width integer types usable as tree keys. The lane
// width of the emulated 128-bit SIMD register is the size of the key type,
// exactly as in the paper's Table 2.
type Key interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Width reports the size of K in bytes (1, 2, 4 or 8). The size of each
// instantiation's shape is fixed, so the compiler folds the result into a
// constant and PutAt/GetAt index without a runtime loop.
func Width[K Key]() int {
	var z K
	return int(unsafe.Sizeof(z))
}

// Signed reports whether K is a signed type.
func Signed[K Key]() bool {
	var z K
	return z-1 < z
}

// Lanes reports how many K lanes fit in one 128-bit SIMD register, i.e. the
// number of parallel comparisons (paper Table 2, column "Parallel
// comparisons"). K as in "k-ary" is Lanes+1.
func Lanes[K Key]() int { return 16 / Width[K]() }

// K reports the k value of the k-ary search enabled by a 128-bit register
// for key type K (paper Table 2): k = |SIMD|/m + 1.
func K[K_ Key]() int { return Lanes[K_]() + 1 }

// bias returns the realignment mask for K: the sign bit of the lane if K is
// unsigned (so that unsigned order maps onto signed lane order), zero if K
// is already signed.
func bias[K Key]() uint64 {
	if Signed[K]() {
		return 0
	}
	return 1 << (uint(Width[K]())*8 - 1)
}

// Lane returns the realigned lane bit pattern of x, zero-extended to 64
// bits. The pattern compares correctly under signed lane comparison.
func Lane[K Key](x K) uint64 {
	w := Width[K]()
	mask := ^uint64(0) >> (64 - uint(w)*8)
	return (uint64(x) ^ bias[K]()) & mask
}

// FromLane is the inverse of Lane.
func FromLane[K Key](bits uint64) K {
	w := Width[K]()
	mask := ^uint64(0) >> (64 - uint(w)*8)
	u := (bits & mask) ^ bias[K]()
	// Sign-extend for signed K so that the uint64->K conversion is exact.
	if Signed[K]() && u&(1<<(uint(w)*8-1)) != 0 {
		u |= ^mask
	}
	return K(u)
}

// OrderedBits returns the bit pattern of x whose unsigned Width-byte value
// preserves the native key order: unsigned keys are returned unchanged,
// signed keys get their sign bit flipped. The Seg-Trie splits this pattern
// into most-significant-first segments so that trie order equals key order.
func OrderedBits[K Key](x K) uint64 {
	w := Width[K]()
	mask := ^uint64(0) >> (64 - uint(w)*8)
	u := uint64(x) & mask
	if Signed[K]() {
		u ^= 1 << (uint(w)*8 - 1)
	}
	return u
}

// FromOrderedBits is the inverse of OrderedBits. The conversion to K
// keeps the low Width bytes, so a signed K takes its sign from the
// flipped bit without a mask.
func FromOrderedBits[K Key](bits uint64) K {
	if Signed[K]() {
		bits ^= 1 << (uint(Width[K]())*8 - 1)
	}
	return K(bits)
}

// Put stores the realigned little-endian lane bytes of x into b[:Width].
func Put[K Key](b []byte, x K) {
	u := Lane(x)
	switch Width[K]() {
	case 1:
		b[0] = byte(u)
	case 2:
		b[0] = byte(u)
		b[1] = byte(u >> 8)
	case 4:
		b[0] = byte(u)
		b[1] = byte(u >> 8)
		b[2] = byte(u >> 16)
		b[3] = byte(u >> 24)
	default:
		b[0] = byte(u)
		b[1] = byte(u >> 8)
		b[2] = byte(u >> 16)
		b[3] = byte(u >> 24)
		b[4] = byte(u >> 32)
		b[5] = byte(u >> 40)
		b[6] = byte(u >> 48)
		b[7] = byte(u >> 56)
	}
}

// Get restores the key stored at b[:Width] by Put.
func Get[K Key](b []byte) K {
	var u uint64
	switch Width[K]() {
	case 1:
		u = uint64(b[0])
	case 2:
		u = uint64(b[0]) | uint64(b[1])<<8
	case 4:
		u = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
	default:
		u = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	return FromLane[K](u)
}

// PutAt stores x as the i-th key of the packed array b.
func PutAt[K Key](b []byte, i int, x K) { Put(b[i*Width[K]():], x) }

// GetAt loads the i-th key of the packed array b.
func GetAt[K Key](b []byte, i int) K { return Get[K](b[i*Width[K]():]) }

// ErrUnsorted reports construction input whose keys are not strictly
// ascending. The Checked constructors of the tree packages wrap it with
// position context; errors.Is(err, ErrUnsorted) matches them all.
var ErrUnsorted = errors.New("keys not strictly ascending")
