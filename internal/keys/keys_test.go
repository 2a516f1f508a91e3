package keys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWidth(t *testing.T) {
	if w := Width[int8](); w != 1 {
		t.Fatalf("int8 width %d", w)
	}
	if w := Width[uint8](); w != 1 {
		t.Fatalf("uint8 width %d", w)
	}
	if w := Width[int16](); w != 2 {
		t.Fatalf("int16 width %d", w)
	}
	if w := Width[uint16](); w != 2 {
		t.Fatalf("uint16 width %d", w)
	}
	if w := Width[int32](); w != 4 {
		t.Fatalf("int32 width %d", w)
	}
	if w := Width[uint32](); w != 4 {
		t.Fatalf("uint32 width %d", w)
	}
	if w := Width[int64](); w != 8 {
		t.Fatalf("int64 width %d", w)
	}
	if w := Width[uint64](); w != 8 {
		t.Fatalf("uint64 width %d", w)
	}
}

func TestSigned(t *testing.T) {
	if !Signed[int8]() || !Signed[int16]() || !Signed[int32]() || !Signed[int64]() {
		t.Fatal("signed types misdetected")
	}
	if Signed[uint8]() || Signed[uint16]() || Signed[uint32]() || Signed[uint64]() {
		t.Fatal("unsigned types misdetected")
	}
}

// TestTable2KValues reproduces the paper's Table 2: k values and parallel
// comparison counts for a 128-bit SIMD register.
func TestTable2KValues(t *testing.T) {
	if got := K[uint8](); got != 17 {
		t.Fatalf("8-bit k: got %d want 17", got)
	}
	if got := K[uint16](); got != 9 {
		t.Fatalf("16-bit k: got %d want 9", got)
	}
	if got := K[uint32](); got != 5 {
		t.Fatalf("32-bit k: got %d want 5", got)
	}
	if got := K[uint64](); got != 3 {
		t.Fatalf("64-bit k: got %d want 3", got)
	}
	if got := Lanes[uint8](); got != 16 {
		t.Fatalf("8-bit lanes: got %d want 16", got)
	}
	if got := Lanes[uint64](); got != 2 {
		t.Fatalf("64-bit lanes: got %d want 2", got)
	}
}

func roundTrip[K Key](t *testing.T, xs ...K) {
	t.Helper()
	b := make([]byte, Width[K]())
	for _, x := range xs {
		Put(b, x)
		if got := Get[K](b); got != x {
			t.Fatalf("roundtrip %v: got %v", x, got)
		}
		if got := FromLane[K](Lane(x)); got != x {
			t.Fatalf("lane roundtrip %v: got %v", x, got)
		}
	}
}

func TestPutGetRoundTripEdgeValues(t *testing.T) {
	roundTrip[int8](t, math.MinInt8, -1, 0, 1, math.MaxInt8)
	roundTrip[uint8](t, 0, 1, 127, 128, math.MaxUint8)
	roundTrip[int16](t, math.MinInt16, -1, 0, 1, math.MaxInt16)
	roundTrip[uint16](t, 0, 1, 32767, 32768, math.MaxUint16)
	roundTrip[int32](t, math.MinInt32, -1, 0, 1, math.MaxInt32)
	roundTrip[uint32](t, 0, 1, math.MaxUint32)
	roundTrip[int64](t, math.MinInt64, -1, 0, 1, math.MaxInt64)
	roundTrip[uint64](t, 0, 1, math.MaxUint64)
}

// laneOrderPreserved verifies the realignment property the trees rely on:
// x < y (native order) ⇔ Lane(x) < Lane(y) when both lane patterns are
// interpreted as signed integers of the key width — i.e. the signed SIMD
// compare on realigned lanes reproduces the native key order.
func laneOrderPreserved[K Key](x, y K) bool {
	w := Width[K]()
	shift := uint(64 - 8*w)
	lx := int64(Lane(x)<<shift) >> shift
	ly := int64(Lane(y)<<shift) >> shift
	return (x < y) == (lx < ly) && (x == y) == (lx == ly)
}

func TestLaneOrderQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20000}
	if err := quick.Check(func(x, y uint8) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y int8) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y uint16) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y int16) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y uint32) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y int32) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y uint64) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y int64) bool { return laneOrderPreserved(x, y) }, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRealignmentMatchesPaper(t *testing.T) {
	// Paper §2.1: "the value zero of an 8-bit unsigned integer data type is
	// realigned to -128" — i.e. its lane pattern is 0x80.
	if got := Lane[uint8](0); got != 0x80 {
		t.Fatalf("Lane(uint8 0) = %#x, want 0x80", got)
	}
	if got := Lane[uint8](255); got != 0x7F {
		t.Fatalf("Lane(uint8 255) = %#x, want 0x7F", got)
	}
	// Signed keys are stored unmodified.
	if got := Lane[int8](-1); got != 0xFF {
		t.Fatalf("Lane(int8 -1) = %#x, want 0xFF", got)
	}
}

func TestPutAtGetAt(t *testing.T) {
	b := make([]byte, 8*3)
	PutAt(b, 0, int64(-5))
	PutAt(b, 1, int64(0))
	PutAt(b, 2, int64(7))
	if GetAt[int64](b, 0) != -5 || GetAt[int64](b, 1) != 0 || GetAt[int64](b, 2) != 7 {
		t.Fatal("PutAt/GetAt mismatch")
	}
}

func TestLanesAreSortedAsSignedWhenKeysAreSorted(t *testing.T) {
	// The packed lane patterns must preserve order when interpreted as
	// signed integers of the key width — this is what makes the signed
	// SIMD greater-than compare on the packed array correct, for signed
	// and (via realignment) unsigned key types alike.
	check := func(lanes []uint64, w int) {
		shift := uint(64 - 8*w)
		for i := 1; i < len(lanes); i++ {
			a := int64(lanes[i-1]<<shift) >> shift
			b := int64(lanes[i]<<shift) >> shift
			if a >= b {
				t.Fatalf("lane order violated at index %d (%#x vs %#x)", i, lanes[i-1], lanes[i])
			}
		}
	}
	signedKeys := []int16{math.MinInt16, -300, -1, 0, 1, 299, math.MaxInt16}
	lanes := make([]uint64, len(signedKeys))
	for i, x := range signedKeys {
		lanes[i] = Lane(x)
	}
	check(lanes, 2)
	unsignedKeys := []uint16{0, 1, 299, 32767, 32768, 65000, math.MaxUint16}
	lanes = lanes[:0]
	for _, x := range unsignedKeys {
		lanes = append(lanes, Lane(x))
	}
	check(lanes, 2)
}

// TestOrderedBits checks the order-preserving unsigned representation the
// Seg-Trie splits into segments: x < y ⇔ OrderedBits(x) < OrderedBits(y)
// as plain uint64 comparison, and the mapping round-trips.
func TestOrderedBits(t *testing.T) {
	if OrderedBits[uint8](0) != 0 || OrderedBits[uint8](255) != 255 {
		t.Fatal("unsigned keys must pass through")
	}
	if OrderedBits[int8](math.MinInt8) != 0 || OrderedBits[int8](127) != 255 {
		t.Fatalf("signed bias: %#x %#x", OrderedBits[int8](math.MinInt8), OrderedBits[int8](127))
	}
	check := func(t *testing.T, pairs [][2]int64, conv func(int64) uint64, inv func(uint64) int64) {
		t.Helper()
		for _, p := range pairs {
			a, b := conv(p[0]), conv(p[1])
			if (p[0] < p[1]) != (a < b) {
				t.Fatalf("order violated for %d,%d", p[0], p[1])
			}
			if inv(a) != p[0] || inv(b) != p[1] {
				t.Fatalf("roundtrip failed for %d,%d", p[0], p[1])
			}
		}
	}
	check(t, [][2]int64{{math.MinInt64, -1}, {-1, 0}, {0, 1}, {1, math.MaxInt64}, {-77, 42}},
		func(x int64) uint64 { return OrderedBits(x) },
		func(u uint64) int64 { return FromOrderedBits[int64](u) })
	check(t, [][2]int64{{-32768, -1}, {-1, 0}, {0, 32767}},
		func(x int64) uint64 { return OrderedBits(int16(x)) },
		func(u uint64) int64 { return int64(FromOrderedBits[int16](u)) })
}

func TestOrderedBitsQuick(t *testing.T) {
	if err := quick.Check(func(x, y int32) bool {
		a, b := OrderedBits(x), OrderedBits(y)
		return (x < y) == (a < b) && FromOrderedBits[int32](a) == x
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x uint64) bool {
		return OrderedBits(x) == x && FromOrderedBits[uint64](x) == x
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
