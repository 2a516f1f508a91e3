// Package sizeclass computes the capacity the Go allocator gives an
// array: a small allocation is rounded up to its size class, a large one
// to whole pages. Storage can then be matched by class without
// allocating to find the class out, and a new array can be made at
// exactly its class, so its capacity costs no heap beyond what the
// allocator hands out anyway.
//
// The rounding mirrors the runtime's roundupsize for the Go release the
// module builds with (TestMatchesRuntime checks it against real
// allocations). A mismatch under another release is not a correctness
// problem: an array made at a computed capacity has that capacity, so
// storage still matches storage; only the bytes a class rounds up by
// would go unused.
package sizeclass

import (
	"reflect"
	"unsafe"
)

// classes are the allocator's small size classes in bytes, smallest
// first (runtime/sizeclasses.go).
var classes = [...]uint16{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896,
	1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456,
	4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880,
	12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264,
	28672, 32768,
}

const (
	maxSmall = 32768
	// header is the allocator's header on a pointerful object larger
	// than headerFrom bytes; it sits inside the object's class.
	header     = 8
	headerFrom = 512
	page       = 8192
	// Sizes up to smallMax index the class table in steps of 8 bytes,
	// larger ones in steps of 128, as the runtime's lookup does.
	smallMax = 1024
)

// small and large hold the class of each size, rounded up to their
// step, as the runtime's lookup tables do.
var (
	small [smallMax/8 + 1]uint16
	large [(maxSmall-smallMax)/128 + 1]uint16
)

func init() {
	c := 0
	for i := range small {
		for int(classes[c]) < i*8 {
			c++
		}
		small[i] = uint16(classes[c])
	}
	for i := range large {
		for int(classes[c]) < smallMax+i*128 {
			c++
		}
		large[i] = uint16(classes[c])
	}
}

// Bytes returns the capacity in bytes of an allocation of n bytes;
// pointers reports whether the object holds pointers.
func Bytes(n int, pointers bool) int {
	req := n
	if pointers && req > headerFrom {
		req += header
	}
	switch {
	case n <= 0:
		return 0
	case req <= smallMax:
		return int(small[(req+7)/8]) - (req - n)
	case n <= maxSmall-header:
		return int(large[(req-smallMax+127)/128]) - (req - n)
	}
	return (n + page - 1) &^ (page - 1)
}

// Elems returns the capacity in elements of an array of n Es; pointers
// reports whether E holds pointers (Pointers).
func Elems[E any](n int, pointers bool) int {
	size := int(unsafe.Sizeof(*new(E)))
	if size == 0 {
		return n
	}
	return Bytes(n*size, pointers) / size
}

// Pointers reports whether values of E hold pointers the collector
// scans. It reads E's type, so callers on a hot path ask once.
func Pointers[E any]() bool { return hasPointers(reflect.TypeFor[E]()) }

// Copy returns a copy of src in an array of capacity c ≥ len(src):
// dst's when its capacity is c, else a new one. When E holds pointers,
// a reused array's elements past len(src) are cleared, so it keeps no
// stale pointer alive.
func Copy[E any](dst, src []E, c int, pointers bool) []E {
	if cap(dst) != c {
		dst = make([]E, 0, c)
	} else if pointers {
		clear(dst[len(src):c])
	}
	return append(dst[:0], src...)
}

// hasPointers reports whether values of t hold pointers the collector
// scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.Slice:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
