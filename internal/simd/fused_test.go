package simd

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestFusedGtMaskMatchesComposedSequence cross-checks the fused kernel
// against the literal five-step sequence (Load, Set1, CmpGt, MoveMask) for
// every lane width on random and clustered operands. The fused kernel
// takes unsigned-order operands, the composed sequence signed lanes; the
// test biases accordingly.
func TestFusedGtMaskMatchesComposedSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	signMask := map[int]uint64{1: sign8, 2: sign16, 4: sign32, 8: sign64}
	laneMask := map[int]uint64{1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: ^uint64(0)}
	for _, w := range widths {
		for i := 0; i < 100000; i++ {
			var b [16]byte
			rng.Read(b[:])
			// ordered (unsigned-order) search pattern.
			ordered := rng.Uint64() & laneMask[w]
			if i%4 == 0 {
				// Take a lane value from b itself to hit equal lanes.
				lane := rng.Intn(16 / w)
				var u uint64
				for j := 0; j < w; j++ {
					u |= uint64(b[lane*w+j]) << (8 * uint(j))
				}
				ordered = u ^ (signMask[w] & laneMask[w] << 0) // stored lanes are signed; flip to unsigned order
				ordered &= laneMask[w]
			}
			s := NewSearch(w, ordered)
			got := s.Mask(b[:])
			gotEq := s.EqMask(b[:])

			// Composed reference: signed lanes; the stored bytes already
			// are signed lane patterns, the search must be converted from
			// unsigned order back to a signed lane.
			signedSearch := (ordered ^ signMask[w]) & laneMask[w]
			reg := Load(b[:])
			searchReg := Set1Lane(w, signedSearch)
			want := MoveMaskEpi8(CmpGt(w, reg, searchReg))
			wantEq := MoveMaskEpi8(CmpEq(w, reg, searchReg))
			if got != want {
				t.Fatalf("width %d: fused gt %#04x, composed %#04x (b=%x ordered=%#x)",
					w, got, want, b, ordered)
			}
			if gotEq != wantEq {
				t.Fatalf("width %d: fused eq %#04x, composed %#04x (b=%x ordered=%#x)",
					w, gotEq, wantEq, b, ordered)
			}
		}
	}
}

func TestSearchWidth(t *testing.T) {
	for _, w := range widths {
		if got := NewSearch(w, 0).Width(); got != w {
			t.Fatalf("width %d: got %d", w, got)
		}
	}
}

// TestRankMatchesComposedSequence cross-checks the mask-free kernel: Rank
// must return the lanes not greater than the key (lanes minus the greater
// lanes the composed movemask shows) and whether the composed equality
// mask is non-zero, and Mask must be the composed movemask, for every
// width on random operands and on operands with an equal lane.
func TestRankMatchesComposedSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	signMask := map[int]uint64{1: sign8, 2: sign16, 4: sign32, 8: sign64}
	for _, w := range widths {
		laneMask := ^uint64(0) >> (64 - 8*uint(w))
		for i := 0; i < 100000; i++ {
			var b [16]byte
			rng.Read(b[:])
			reg := Load(b[:])
			signed := rng.Uint64() & laneMask
			if i%3 == 0 {
				signed = reg.Lo >> (8 * uint(w*rng.Intn(8/w))) & laneMask // a lane of the low half
			}
			s := NewSearch(w, (signed^signMask[w])&laneMask)
			searchReg := Set1Lane(w, signed)
			gt := MoveMaskEpi8(CmpGt(w, reg, searchReg))
			eq := MoveMaskEpi8(CmpEq(w, reg, searchReg))
			rank, hit := s.Rank(b[:])
			if want := 16/w - bits.OnesCount16(gt)/w; rank != want || hit != (eq != 0) {
				t.Fatalf("width %d: Rank = (%d, %v), want (%d, %v) (b=%x signed=%#x)",
					w, rank, hit, want, eq != 0, b, signed)
			}
			if got := s.Mask(b[:]); got != gt {
				t.Fatalf("width %d: Mask = %#04x, want %#04x", w, got, gt)
			}
		}
	}
}
