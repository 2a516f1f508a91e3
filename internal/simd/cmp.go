package simd

import "math/bits"

// This file implements the lane-parallel compare instructions
// (_mm_cmpgt_epi{8,16,32,64}, _mm_cmpeq_epi{8,16,32,64}) with SWAR
// arithmetic. A true lane sets every bit of that lane (0xFF… as in SSE2),
// so MoveMaskEpi8 applies uniformly afterwards.
//
// The greater-than kernels bias both operands by the lane sign bit, which
// turns signed order into unsigned order, then evaluate the carry out of a
// per-lane subtraction. To keep lanes independent, byte (and word) lanes
// are split into even and odd groups so every lane sits in a container
// twice its width; the container arithmetic then never borrows across
// lanes.

const (
	sign8  = 0x8080808080808080
	sign16 = 0x8000800080008000
	sign32 = 0x8000000080000000
	sign64 = 0x8000000000000000

	low7  = 0x7F7F7F7F7F7F7F7F
	low15 = 0x7FFF7FFF7FFF7FFF
	low31 = 0x7FFFFFFF7FFFFFFF
	low63 = 0x7FFFFFFFFFFFFFFF

	evenBytes = 0x00FF00FF00FF00FF
	evenWords = 0x0000FFFF0000FFFF
	lowDword  = 0x00000000FFFFFFFF

	carry8  = 0x0100010001000100 // bit 8 of each 16-bit container
	carry16 = 0x0001000000010000 // bit 16 of each 32-bit container
)

// gt8 computes the per-byte unsigned a>b mask (0xFF per true lane) for the
// eight byte lanes of one register half.
func gt8(a, b uint64) uint64 {
	// Even byte lanes, each in a 16-bit container: a+(0xFF-b) sets bit 8
	// of the container exactly when a > b (values ≤ 0xFF, so no carry can
	// leave the container).
	te := (a & evenBytes) + (evenBytes - (b & evenBytes))
	to := ((a >> 8) & evenBytes) + (evenBytes - ((b >> 8) & evenBytes))
	ge := ((te & carry8) >> 8) * 0xFF
	godd := ((to & carry8) >> 8) * 0xFF
	return ge | godd<<8
}

// gt16 is gt8 for the four 16-bit lanes of one register half.
func gt16(a, b uint64) uint64 {
	te := (a & evenWords) + (evenWords - (b & evenWords))
	to := ((a >> 16) & evenWords) + (evenWords - ((b >> 16) & evenWords))
	ge := ((te & carry16) >> 16) * 0xFFFF
	godd := ((to & carry16) >> 16) * 0xFFFF
	return ge | godd<<16
}

// gt32 is gt8 for the two 32-bit lanes of one register half.
func gt32(a, b uint64) uint64 {
	tl := (a & lowDword) + (lowDword - (b & lowDword))
	th := (a >> 32) + (lowDword - (b >> 32))
	gl := ((tl >> 32) & 1) * 0xFFFFFFFF
	gh := ((th >> 32) & 1) * 0xFFFFFFFF
	return gl | gh<<32
}

// CmpGtEpi8 emulates _mm_cmpgt_epi8: sixteen signed 8-bit greater-than
// compares, a.lane > b.lane ⇒ lane = 0xFF.
func CmpGtEpi8(a, b Vec) Vec {
	return Vec{
		Lo: gt8(a.Lo^sign8, b.Lo^sign8),
		Hi: gt8(a.Hi^sign8, b.Hi^sign8),
	}
}

// CmpGtEpi16 emulates _mm_cmpgt_epi16: eight signed 16-bit compares.
func CmpGtEpi16(a, b Vec) Vec {
	return Vec{
		Lo: gt16(a.Lo^sign16, b.Lo^sign16),
		Hi: gt16(a.Hi^sign16, b.Hi^sign16),
	}
}

// CmpGtEpi32 emulates _mm_cmpgt_epi32: four signed 32-bit compares.
func CmpGtEpi32(a, b Vec) Vec {
	return Vec{
		Lo: gt32(a.Lo^sign32, b.Lo^sign32),
		Hi: gt32(a.Hi^sign32, b.Hi^sign32),
	}
}

// CmpGtEpi64 emulates _mm_cmpgt_epi64 (SSE4.2): two signed 64-bit compares.
// The biased subtraction b−a borrows exactly when a > b, so the lane mask
// is the negated borrow, with no branch on the data.
func CmpGtEpi64(a, b Vec) Vec {
	_, lo := bits.Sub64(b.Lo^sign64, a.Lo^sign64, 0)
	_, hi := bits.Sub64(b.Hi^sign64, a.Hi^sign64, 0)
	return Vec{-lo, -hi}
}

// eqLanes computes the per-lane equality mask (all lane bits set when the
// lanes are equal) for lane width w bytes over one register half. The
// zero-lane detection ~(((x&m)+m)|x|m) with m = lane mask without its sign
// bit sets exactly the lane sign bit of every all-zero lane and is exact:
// the addition can never carry across a lane boundary.
func eqLanes(a, b uint64, w int) uint64 {
	x := a ^ b
	switch w {
	case 1:
		y := ^(((x & low7) + low7) | x | low7)
		return (y >> 7) * 0xFF
	case 2:
		y := ^(((x & low15) + low15) | x | low15)
		return (y >> 15) * 0xFFFF
	case 4:
		y := ^(((x & low31) + low31) | x | low31)
		return (y >> 31) * 0xFFFFFFFF
	default:
		y := ^(((x & low63) + low63) | x | low63)
		return -(y >> 63)
	}
}

// CmpEqEpi8 emulates _mm_cmpeq_epi8.
func CmpEqEpi8(a, b Vec) Vec {
	return Vec{eqLanes(a.Lo, b.Lo, 1), eqLanes(a.Hi, b.Hi, 1)}
}

// CmpEqEpi16 emulates _mm_cmpeq_epi16.
func CmpEqEpi16(a, b Vec) Vec {
	return Vec{eqLanes(a.Lo, b.Lo, 2), eqLanes(a.Hi, b.Hi, 2)}
}

// CmpEqEpi32 emulates _mm_cmpeq_epi32.
func CmpEqEpi32(a, b Vec) Vec {
	return Vec{eqLanes(a.Lo, b.Lo, 4), eqLanes(a.Hi, b.Hi, 4)}
}

// CmpEqEpi64 emulates _mm_cmpeq_epi64.
func CmpEqEpi64(a, b Vec) Vec {
	return Vec{eqLanes(a.Lo, b.Lo, 8), eqLanes(a.Hi, b.Hi, 8)}
}

// CmpGt dispatches the greater-than compare by lane byte width.
func CmpGt(width int, a, b Vec) Vec {
	switch width {
	case 1:
		return CmpGtEpi8(a, b)
	case 2:
		return CmpGtEpi16(a, b)
	case 4:
		return CmpGtEpi32(a, b)
	default:
		return CmpGtEpi64(a, b)
	}
}

// CmpEq dispatches the equality compare by lane byte width.
func CmpEq(width int, a, b Vec) Vec {
	switch width {
	case 1:
		return CmpEqEpi8(a, b)
	case 2:
		return CmpEqEpi16(a, b)
	case 4:
		return CmpEqEpi32(a, b)
	default:
		return CmpEqEpi64(a, b)
	}
}
