// Package bitmask implements the paper's three algorithms (§2.1,
// Algorithms 1–3) for evaluating the 16-bit movemask produced by the SIMD
// greater-than compare of a sorted lane register against a broadcast search
// key.
//
// Because the lanes are sorted and the compare is greater-than, a valid
// mask has "switch point" form: some (possibly empty) suffix of the lanes
// is all-ones. The evaluation maps the mask to the position of the first
// greater key: 0 … c, where c is the number of lanes (16/width) and c means
// "no key is greater".
package bitmask

import "math/bits"

// The evaluators are zero-allocation hot paths (one evaluation per tree
// level); the directive keeps their //simdtree:hotpath annotations
// checked by cmd/simdvet.
//
//simdtree:kernels ^(Evaluator\.Evaluate|BitShiftEval|PopcountEval|SwitchEval|switch(8|16|32|64))$

// Evaluator selects one of the paper's three mask-evaluation algorithms.
type Evaluator uint8

const (
	// BitShift is Algorithm 1: loop over the segments testing the least
	// significant bit of each, shifting the mask down one segment per
	// iteration.
	BitShift Evaluator = iota
	// SwitchCase is Algorithm 2: a switch statement with one case per
	// possible switch-point mask.
	SwitchCase
	// Popcount is Algorithm 3: position = c − popcount(mask)/width. The
	// paper measures this branch-free variant fastest and uses it for all
	// remaining experiments; we do the same.
	Popcount
)

// String returns the paper's name for the evaluator.
func (e Evaluator) String() string {
	switch e {
	case BitShift:
		return "bit-shifting"
	case SwitchCase:
		return "switch-case"
	case Popcount:
		return "popcount"
	default:
		return "unknown"
	}
}

// Evaluators lists all three algorithms, for experiments that sweep them.
var Evaluators = []Evaluator{BitShift, SwitchCase, Popcount}

// Evaluate returns the position of the first greater key encoded in mask
// for lane byte width width, using the selected algorithm.
//
//simdtree:hotpath
func (e Evaluator) Evaluate(mask uint16, width int) int {
	switch e {
	case BitShift:
		return BitShiftEval(mask, width)
	case SwitchCase:
		return SwitchEval(mask, width)
	default:
		return PopcountEval(mask, width)
	}
}

// BitShiftEval is Algorithm 1 (bit shifting): it inspects the least
// significant bit of every width-byte segment in a loop. For a switch-point
// mask the number of set segment-LSBs is the number of greater keys, so the
// position is c minus that count. Width is a power of two, so the segment
// count is derived with shifts rather than divisions.
//
//simdtree:hotpath
func BitShiftEval(mask uint16, width int) int {
	shift := uint(bits.TrailingZeros8(uint8(width)))
	c := 16 >> shift
	greater := 0
	m := mask
	for i := 0; i < c; i++ {
		greater += int(m & 1)
		m >>= uint(width)
	}
	return c - greater
}

// PopcountEval is Algorithm 3 (popcnt): every greater lane contributes
// width set bits, so position = c − popcount(mask)/width. math/bits
// OnesCount16 compiles to the hardware POPCNT instruction, matching the
// paper's use of popcnt; the divisions by the power-of-two width compile
// to shifts.
//
//simdtree:hotpath
func PopcountEval(mask uint16, width int) int {
	shift := uint(bits.TrailingZeros8(uint8(width)))
	return (16 >> shift) - bits.OnesCount16(mask)>>shift
}

// SwitchEval is Algorithm 2 (switch case): one case per possible
// switch-point mask. The paper lists the 32-bit variant; the other widths
// are the straightforward expansions.
//
//simdtree:hotpath
func SwitchEval(mask uint16, width int) int {
	switch width {
	case 1:
		return switch8(mask)
	case 2:
		return switch16(mask)
	case 4:
		return switch32(mask)
	default:
		return switch64(mask)
	}
}

// switch32 is the paper's Algorithm 2 verbatim: 32-bit segments in a
// 128-bit register, masks 0xFFFF, 0xFFF0, 0xFF00, 0xF000 and 0x0000.
//
//simdtree:hotpath
func switch32(mask uint16) int {
	switch mask {
	case 0xFFFF:
		return 0
	case 0xFFF0:
		return 1
	case 0xFF00:
		return 2
	case 0xF000:
		return 3
	default: // 0x0000: no key greater
		return 4
	}
}

//simdtree:hotpath
func switch64(mask uint16) int {
	switch mask {
	case 0xFFFF:
		return 0
	case 0xFF00:
		return 1
	default: // 0x0000
		return 2
	}
}

//simdtree:hotpath
func switch16(mask uint16) int {
	switch mask {
	case 0xFFFF:
		return 0
	case 0xFFFC:
		return 1
	case 0xFFF0:
		return 2
	case 0xFFC0:
		return 3
	case 0xFF00:
		return 4
	case 0xFC00:
		return 5
	case 0xF000:
		return 6
	case 0xC000:
		return 7
	default: // 0x0000
		return 8
	}
}

//simdtree:hotpath
func switch8(mask uint16) int {
	switch mask {
	case 0xFFFF:
		return 0
	case 0xFFFE:
		return 1
	case 0xFFFC:
		return 2
	case 0xFFF8:
		return 3
	case 0xFFF0:
		return 4
	case 0xFFE0:
		return 5
	case 0xFFC0:
		return 6
	case 0xFF80:
		return 7
	case 0xFF00:
		return 8
	case 0xFE00:
		return 9
	case 0xFC00:
		return 10
	case 0xF800:
		return 11
	case 0xF000:
		return 12
	case 0xE000:
		return 13
	case 0xC000:
		return 14
	case 0x8000:
		return 15
	default: // 0x0000
		return 16
	}
}

// SwitchPointMask builds the mask a sorted greater-than compare would
// produce when the first greater key sits at the given position — the
// inverse of Evaluate. Used by tests and by the treedump inspector.
func SwitchPointMask(position, width int) uint16 {
	c := 16 / width
	if position >= c {
		return 0
	}
	return 0xFFFF << uint(position*width)
}
