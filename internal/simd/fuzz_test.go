package simd

import (
	"encoding/binary"
	"testing"
)

// FuzzCompareKernels cross-checks the SWAR kernels and the fused search
// kernels against the scalar reference on fuzzed register contents.
func FuzzCompareKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint64(2), uint8(0))
	f.Add(^uint64(0), uint64(0x8080808080808080), uint64(42), ^uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, alo, ahi, blo, bhi uint64, wsel uint8) {
		w := []int{1, 2, 4, 8}[wsel%4]
		a := Vec{alo, ahi}
		b := Vec{blo, bhi}
		if got, want := CmpGt(w, a, b), RefCmpGt(w, a, b); got != want {
			t.Fatalf("cmpgt w=%d: %#v want %#v", w, got, want)
		}
		if got, want := CmpEq(w, a, b), RefCmpEq(w, a, b); got != want {
			t.Fatalf("cmpeq w=%d: %#v want %#v", w, got, want)
		}
		if got, want := MoveMaskEpi8(a), RefMoveMaskEpi8(a); got != want {
			t.Fatalf("movemask: %#x want %#x", got, want)
		}

		// Fused kernels: store a, treat blo's low lane as the search key
		// pattern in unsigned order.
		var buf [16]byte
		a.Store(buf[:])
		laneMask := ^uint64(0) >> (64 - 8*uint(w))
		ordered := blo & laneMask
		s := NewSearch(w, ordered)
		signMask := map[int]uint64{1: sign8, 2: sign16, 4: sign32, 8: sign64}[w]
		signedSearch := (ordered ^ signMask) & laneMask
		reg := Load(buf[:])
		searchReg := Set1Lane(w, signedSearch)
		wantGt := MoveMaskEpi8(CmpGt(w, reg, searchReg))
		wantEq := MoveMaskEpi8(CmpEq(w, reg, searchReg))
		if got := s.Mask(buf[:]); got != wantGt {
			t.Fatalf("fused gt w=%d: %#x want %#x", w, got, wantGt)
		}
		if got := s.EqMask(buf[:]); got != wantEq {
			t.Fatalf("fused eq w=%d: %#x want %#x", w, got, wantEq)
		}
		if got := s.Eq(binary.LittleEndian.Uint64(buf[:]), binary.LittleEndian.Uint64(buf[8:])); got != (wantEq != 0) {
			t.Fatalf("eq w=%d: %v want %v", w, got, wantEq != 0)
		}
	})
}
