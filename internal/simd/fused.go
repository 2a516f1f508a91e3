package simd

import (
	"encoding/binary"
	"math/bits"
)

// Fused forms of the paper's per-node instruction sequence (load → compare
// → movemask), used by the search hot paths. They are semantically
// identical to composing Load, CmpGt* and MoveMaskEpi8 — the test suite
// cross-checks them bit for bit — but exploit two things real SSE code
// also exploits: the search register is loop-invariant (its biased
// complement terms are precomputed once per search, like hoisting the
// unsigned-realignment XOR of §2.1), and the only consumer of the compare
// result is the movemask or its popcount, so the per-lane carry bits are
// gathered or counted directly instead of being spread to 0xFF lanes
// first.
//
// Mask produces exactly the _mm_movemask_epi8 result: one bit per byte,
// i.e. width bits per true lane. The Rank kernels skip the movemask
// altogether and return the k-ary digit Algorithm 3 would compute from
// it. No kernel records cost counts: the searches that call them return
// their own §4 cost.

// Every fused kernel below runs once per visited node and is a
// zero-allocation hot path; the directive keeps the //simdtree:hotpath
// annotations checked by cmd/simdvet.
//
//simdtree:kernels ^(NewSearch|carries(8|16|32)|gtMask(8|16|32)|Search\.(Rank(8|16|32|64)?|Eq|Mask|EqMask))$

// Search is a prepared search register for repeated greater-than compares
// of one search key against packed nodes.
type Search struct {
	width int
	// sign is the lane sign-bit pattern that realigns a loaded register
	// to unsigned lane order.
	sign uint64
	// lo is the biased (unsigned-order) broadcast value, used by the
	// 64-bit kernel and the equality kernels.
	lo uint64
	// sc is the precomputed per-container complement of the search lanes:
	// adding it to a biased key lane produces a carry exactly when the
	// key is greater.
	sc uint64
}

// NewSearch broadcasts the order-preserving (unsigned-order) bit pattern
// of the search key and precomputes the compare terms.
//
//simdtree:hotpath
func NewSearch(width int, orderedBits uint64) Search {
	s := Search{width: width}
	switch width {
	case 1:
		s.lo = orderedBits & 0xFF * rep8
		s.sign, s.sc = sign8, evenBytes-(s.lo&evenBytes)
	case 2:
		s.lo = orderedBits & 0xFFFF * rep16
		s.sign, s.sc = sign16, evenWords-(s.lo&evenWords)
	case 4:
		s.lo = orderedBits & 0xFFFFFFFF * rep32
		s.sign, s.sc = sign32, lowDword-(s.lo&lowDword)
	default:
		s.lo, s.sign = orderedBits, sign64
	}
	return s
}

// Width reports the lane width the search was prepared for.
func (s Search) Width() int { return s.width }

// Multiply-gather constants: they move the per-container carry bits of one
// register half into the top byte, yielding the byte-granularity movemask
// bits for the even (or odd) lanes. The partial products never collide, so
// no carries corrupt the result.
const (
	gather8  = 1<<48 | 1<<34 | 1<<20 | 1<<6 // carries at bits 8,24,40,56 → mask bits 0,2,4,6
	gather16 = 1<<40 | 1<<12                // carries at bits 16,48 → mask bits 0,4
)

// carries8 adds the prepared complement to the even and the odd byte
// lanes of one biased register half, each lane in a 16-bit container,
// and keeps the carry bits: bit 8 of a container is set exactly when its
// lane is greater than the search key.
//
//simdtree:hotpath
func carries8(a, sc uint64) (even, odd uint64) {
	return ((a & evenBytes) + sc) & carry8, (((a >> 8) & evenBytes) + sc) & carry8
}

// carries16 is carries8 for four 16-bit lanes in 32-bit containers
// (carry bits 16 and 48).
//
//simdtree:hotpath
func carries16(a, sc uint64) (even, odd uint64) {
	return ((a & evenWords) + sc) & carry16, (((a >> 16) & evenWords) + sc) & carry16
}

// carries32 is carries8 for the two 32-bit lanes of one half, each in a
// 64-bit container whose carry is bit 32.
//
//simdtree:hotpath
func carries32(a, sc uint64) (low, high uint64) {
	return ((a & lowDword) + sc) & (1 << 32), ((a >> 32) + sc) & (1 << 32)
}

// gtMask8 compares eight biased byte lanes of one half against the
// prepared search and returns their byte mask bits.
//
//simdtree:hotpath
func gtMask8(a uint64, sc uint64) uint32 {
	te, to := carries8(a, sc)
	return uint32(te*gather8>>56)&0x55 | (uint32(to*gather8>>56)&0x55)<<1
}

// gtMask16 is gtMask8 for four 16-bit lanes (two mask bits per lane).
//
//simdtree:hotpath
func gtMask16(a uint64, sc uint64) uint32 {
	te, to := carries16(a, sc)
	return (uint32(te*gather16>>56)&0x11 | (uint32(to*gather16>>56)&0x11)<<2) * 0x3
}

// gtMask32 is gtMask8 for two 32-bit lanes (four mask bits per lane).
//
//simdtree:hotpath
func gtMask32(a uint64, sc uint64) uint32 {
	tl, th := carries32(a, sc)
	return uint32(tl>>32)*0x0F | uint32(th>>32)*0xF0
}

// load reads one 16-byte node from b and realigns it to unsigned lane
// order.
func (s Search) load(b []byte) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(b) ^ s.sign, binary.LittleEndian.Uint64(b[8:]) ^ s.sign
}

// Rank8, Rank16, Rank32 and Rank64 take the two little-endian words of
// one loaded 16-byte node of their lane width and return how many of its
// lanes are not greater than the search key: the k-ary digit Algorithm 3
// computes from the movemask. They build no movemask and take no branch
// on the data. The narrow widths count the compare's carry bits with one
// popcount, shifted apart so they cannot collide; 64-bit lanes add up the
// borrows of a subtraction. Each is small enough to inline into a
// descent loop that fixes the width.

//simdtree:hotpath
func (s Search) Rank8(lo, hi uint64) int {
	el, ol := carries8(lo^sign8, s.sc)
	eh, oh := carries8(hi^sign8, s.sc)
	return 16 - bits.OnesCount64(el|ol>>1|eh>>2|oh>>3)
}

//simdtree:hotpath
func (s Search) Rank16(lo, hi uint64) int {
	el, ol := carries16(lo^sign16, s.sc)
	eh, oh := carries16(hi^sign16, s.sc)
	return 8 - bits.OnesCount64(el|ol>>1|eh>>2|oh>>3)
}

//simdtree:hotpath
func (s Search) Rank32(lo, hi uint64) int {
	ll, hl := carries32(lo^sign32, s.sc)
	lh, hh := carries32(hi^sign32, s.sc)
	return 4 - int((ll+hl+lh+hh)>>32)
}

//simdtree:hotpath
func (s Search) Rank64(lo, hi uint64) int {
	_, gl := bits.Sub64(s.lo, lo^sign64, 0) // borrows exactly when the lane is greater
	_, gh := bits.Sub64(s.lo, hi^sign64, 0)
	return 2 - int(gl+gh)
}

// Eq reports whether a lane of the node loaded as lo, hi equals the
// search key, for every lane width. On the XOR x of the operands,
// ((x&^sign)+^sign)|x has a lane's sign bit clear exactly when the lane
// is zero: the addition carries into the sign bit from any set low bit
// and never across lanes.
//
//simdtree:hotpath
func (s Search) Eq(lo, hi uint64) bool {
	x, y := lo^s.sign^s.lo, hi^s.sign^s.lo
	return (((x&^s.sign)+^s.sign)|x)&(((y&^s.sign)+^s.sign)|y)&s.sign != s.sign
}

// Rank loads one 16-byte node from b and runs the Rank kernel of the
// search's lane width on it.
//
//simdtree:hotpath
func (s Search) Rank(b []byte) (rank int, eq bool) {
	lo, hi := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	switch s.width {
	case 1:
		rank = s.Rank8(lo, hi)
	case 2:
		rank = s.Rank16(lo, hi)
	case 4:
		rank = s.Rank32(lo, hi)
	default:
		rank = s.Rank64(lo, hi)
	}
	return rank, s.Eq(lo, hi)
}

// Mask loads one 16-byte node from b, compares every lane against the
// prepared search key for greater-than, and returns the movemask — steps
// 1, 3 and 4 of the paper's §2.1 sequence in one kernel.
//
//simdtree:hotpath
func (s Search) Mask(b []byte) uint16 {
	lo, hi := s.load(b)
	switch s.width {
	case 1:
		return uint16(gtMask8(lo, s.sc) | gtMask8(hi, s.sc)<<8)
	case 2:
		return uint16(gtMask16(lo, s.sc) | gtMask16(hi, s.sc)<<8)
	case 4:
		return uint16(gtMask32(lo, s.sc) | gtMask32(hi, s.sc)<<8)
	default:
		_, gl := bits.Sub64(s.lo, lo, 0)
		_, gh := bits.Sub64(s.lo, hi, 0)
		return uint16(-gl)&0x00FF | uint16(-gh)&0xFF00
	}
}

// EqMask is Mask for lane equality: _mm_cmpeq followed by the movemask.
//
//simdtree:hotpath
func (s Search) EqMask(b []byte) uint16 {
	lo, hi := s.load(b)
	w := s.width
	return uint16(moveMask64(eqLanes(lo, s.lo, w)) | moveMask64(eqLanes(hi, s.lo, w))<<8)
}
