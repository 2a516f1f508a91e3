package sizeclass

import "testing"

// TestMatchesRuntime compares the computed capacities with the ones the
// runtime gives: append's growth of an empty slice is rounded to the
// allocator's class, with and without pointers, across the small
// classes, the malloc-header threshold and into whole pages.
func TestMatchesRuntime(t *testing.T) {
	type pair struct {
		a int
		s string
	}
	if Pointers[uint64]() || Pointers[[4]byte]() || !Pointers[*int]() || !Pointers[pair]() || !Pointers[[]byte]() {
		t.Fatal("Pointers misreads a type")
	}
	for n := 0; n <= 40_000; n += 1 + n/512 {
		if got, want := Elems[byte](n, false), cap(append([]byte(nil), make([]byte, n)...)); got != want {
			t.Fatalf("Elems[byte](%d) = %d, runtime gives %d", n, got, want)
		}
		if got, want := Elems[uint64](n/8, false), cap(append([]uint64(nil), make([]uint64, n/8)...)); got != want {
			t.Fatalf("Elems[uint64](%d) = %d, runtime gives %d", n/8, got, want)
		}
		if got, want := Elems[*int](n/8, true), cap(append([]*int(nil), make([]*int, n/8)...)); got != want {
			t.Fatalf("Elems[*int](%d) = %d, runtime gives %d", n/8, got, want)
		}
		if got, want := Elems[pair](n/24, Pointers[pair]()), cap(append([]pair(nil), make([]pair, n/24)...)); got != want {
			t.Fatalf("Elems[pair](%d) = %d, runtime gives %d", n/24, got, want)
		}
	}
}

// TestCopy checks that Copy reuses an array only of the class a copy
// wants, and clears what the reused array held past the copy.
func TestCopy(t *testing.T) {
	src := []*int{new(int), new(int), new(int)}
	c := Elems[*int](len(src)+1, true)
	dst := make([]*int, c, c)
	for i := range dst {
		dst[i] = new(int)
	}
	got := Copy(dst[:c], src, c, true)
	if &got[0] != &dst[0] || len(got) != len(src) {
		t.Fatalf("Copy into an array of the copy's class made a new one")
	}
	for i, p := range dst[len(src):] {
		if p != nil {
			t.Fatalf("Copy left a stale pointer at %d", len(src)+i)
		}
	}
	big := make([]*int, 0, c+Elems[*int](c+1, true))
	if got := Copy(big, src, c, true); cap(got) != c {
		t.Fatalf("Copy into a larger array kept capacity %d, want the class %d", cap(got), c)
	}
	if got := Copy(nil, []byte{}, 16, false); cap(got) != 16 || len(got) != 0 {
		t.Fatalf("empty copy at capacity 16: len %d cap %d, want 0 and 16", len(got), cap(got))
	}
}
