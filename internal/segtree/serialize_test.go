package segtree

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/kary"
)

func encInt(w io.Writer, v int) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	_, err := w.Write(b[:])
	return err
}

func decInt(r io.Reader) (int, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(b[:])), nil
}

// TestSerializeRoundTripOneKeyRightmostLeaf round-trips an appended tree
// whose rightmost leaf holds a single key: the restored tree is
// bulk-loaded, so its two leaves share the keys, and it holds the same
// items in the same order.
func TestSerializeRoundTripOneKeyRightmostLeaf(t *testing.T) {
	cfg := DefaultConfig[uint64]()
	cfg.Lanes = kary.KeyLanes // the slot counts below are 64-bit lanes
	tr := New[uint64, int](cfg)
	n := cfg.LeafCap + 1
	for i := range n {
		tr.Put(uint64(i)*5, i)
	}
	// A full 64-bit depth-first leaf stores its 242 keys in 242 slots, a
	// 1-key leaf stores one 2-lane register.
	if lf := tr.Shape().LevelFill; len(lf) != 2 || lf[1].Nodes != 2 || lf[1].Slots != cfg.LeafCap+2 {
		t.Fatalf("appended tree levels %+v, want a full leaf and a 1-key leaf", lf)
	}
	var buf bytes.Buffer
	if err := tr.Serialize(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize[uint64, int](&buf, decInt)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != n || got.Config() != cfg {
		t.Fatalf("restored len %d config %+v, want %d %+v", got.Len(), got.Config(), n, cfg)
	}
	i := 0
	got.Ascend(func(k uint64, v int) bool {
		if k != uint64(i)*5 || v != i {
			t.Fatalf("item %d: got %d=%d", i, k, v)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("restored tree ascends %d items, want %d", i, n)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cfg := Config{LeafCap: 9, BranchCap: 7, Layout: kary.DepthFirst, Evaluator: bitmask.SwitchCase}
	tr := New[int32, int](cfg)
	rng := rand.New(rand.NewSource(141))
	ref := map[int32]int{}
	for i := 0; i < 5000; i++ {
		k := int32(rng.Uint32())
		tr.Put(k, i)
		ref[k] = i
	}

	var buf bytes.Buffer
	if err := tr.Serialize(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize[int32, int](&buf, decInt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(ref) {
		t.Fatalf("len %d want %d", got.Len(), len(ref))
	}
	if got.Config() != cfg {
		t.Fatalf("config %+v want %+v", got.Config(), cfg)
	}
	for k, v := range ref {
		if gv, ok := got.Get(k); !ok || gv != v {
			t.Fatalf("key %d: got %d %v", k, gv, ok)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeEmptyTree(t *testing.T) {
	tr := NewDefault[uint64, int]()
	var buf bytes.Buffer
	if err := tr.Serialize(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize[uint64, int](&buf, decInt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("len %d", got.Len())
	}
}

func TestDeserializeRejectsCorruptStreams(t *testing.T) {
	tr := NewDefault[uint32, int]()
	for i := uint32(0); i < 100; i++ {
		tr.Put(i, int(i))
	}
	var buf bytes.Buffer
	if err := tr.Serialize(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	expectErr := func(name string, data []byte, wantSub string) {
		t.Helper()
		_, err := Deserialize[uint32, int](bytes.NewReader(data), decInt)
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q lacks %q", name, err, wantSub)
		}
	}

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	expectErr("bad magic", bad, "magic")

	expectErr("empty stream", nil, "magic")
	expectErr("truncated header", good[:6], "")
	expectErr("truncated items", good[:len(good)-5], "")

	// Wrong key width: deserialize a uint32 stream as uint64.
	if _, err := Deserialize[uint64, int](bytes.NewReader(good), decInt); err == nil {
		t.Fatal("width mismatch accepted")
	}
	// Wrong signedness: deserialize a uint32 stream as int32.
	if _, err := Deserialize[int32, int](bytes.NewReader(good), decInt); err == nil {
		t.Fatal("signedness mismatch accepted")
	}

	// Corrupt key ordering: flip a key byte in the payload region.
	bad = append([]byte(nil), good...)
	// header = 4 magic + 4 header + 16 sizes = 24; item = 4 key + 8 value.
	bad[24+12*3] = 0xFF
	expectErr("unsorted keys", bad, "ascending")
}

func TestSerializePropagatesValueCodecErrors(t *testing.T) {
	tr := NewDefault[uint32, int]()
	tr.Put(1, 1)
	errBoom := io.ErrClosedPipe
	err := tr.Serialize(io.Discard, func(io.Writer, int) error { return errBoom })
	if err != errBoom {
		t.Fatalf("got %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Serialize(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	_, err = Deserialize[uint32, int](&buf, func(io.Reader) (int, error) { return 0, errBoom })
	if err == nil {
		t.Fatal("decoder error swallowed")
	}
}

// TestDeserializeHugeCountDoesNotPreallocate: a 24-byte header claiming
// 2^40 items must fail on the missing first item without first
// allocating room for the claimed count.
func TestDeserializeHugeCountDoesNotPreallocate(t *testing.T) {
	stream := hostileHeader(1 << 40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Deserialize[uint32, int](bytes.NewReader(stream), decInt)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "reading key 0") {
		t.Fatalf("got %v, want a failure reading key 0", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("allocated %d bytes for a stream of %d bytes", grew, len(stream))
	}
}

// hostileHeader is a valid uint32 stream header (default configuration)
// claiming count items, with no items after it.
func hostileHeader(count uint64) []byte {
	var buf bytes.Buffer
	if err := NewDefault[uint32, int]().Serialize(&buf, encInt); err != nil {
		panic(err)
	}
	stream := buf.Bytes()
	binary.LittleEndian.PutUint64(stream[16:], count)
	return stream
}

// FuzzDeserialize feeds arbitrary streams to Deserialize. It must return
// an error or a valid tree, never panic; a tree it accepts must serialize
// back to the bytes it was read from.
func FuzzDeserialize(f *testing.F) {
	tr := New[uint32, int](Config{LeafCap: 4, BranchCap: 3, Layout: kary.DepthFirst, Evaluator: bitmask.Popcount})
	for i := uint32(0); i < 40; i++ {
		tr.Put(i*7, int(i))
	}
	var buf bytes.Buffer
	if err := tr.Serialize(&buf, encInt); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(withLayoutByte(buf.Bytes(), 0x40|byte(kary.DepthFirst))) // an unknown layout bit
	f.Add(hostileHeader(0))
	f.Add(hostileHeader(1 << 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Deserialize[uint32, int](bytes.NewReader(data), decInt)
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted stream gives an invalid tree: %v", err)
		}
		var out bytes.Buffer
		if err := got.Serialize(&out, encInt); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("round trip changed the stream:\n in %x\nout %x", data, out.Bytes())
		}
	})
}

// withLayoutByte returns a copy of the stream with its layout byte set.
func withLayoutByte(stream []byte, b byte) []byte {
	out := bytes.Clone(stream)
	out[len(magic)+2] = b
	return out
}

// TestSerializeRecordsLanePolicy round-trips a NarrowLanes and a KeyLanes
// tree: each comes back with its policy. A stream without the lane bit,
// as every stream was written before the policy existed, reads back as
// KeyLanes, and any other bit of the layout byte is rejected.
func TestSerializeRecordsLanePolicy(t *testing.T) {
	for _, lanes := range []kary.LanePolicy{kary.KeyLanes, kary.NarrowLanes} {
		cfg := DefaultConfig[uint64]()
		cfg.Lanes = lanes
		tr := New[uint64, int](cfg)
		for i := range 1000 {
			tr.Put(uint64(i)*3, i)
		}
		var buf bytes.Buffer
		if err := tr.Serialize(&buf, encInt); err != nil {
			t.Fatal(err)
		}
		got, err := Deserialize[uint64, int](bytes.NewReader(buf.Bytes()), decInt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Config() != cfg || got.Len() != 1000 {
			t.Fatalf("%v: restored config %+v (%d keys), want %+v", lanes, got.Config(), got.Len(), cfg)
		}
		ln := got.Shape().LaneNodes
		if narrowed := ln[0]+ln[1]+ln[2] > 0; narrowed != (lanes == kary.NarrowLanes) {
			t.Fatalf("%v: restored lane nodes %v", lanes, got.Shape().LaneNodes)
		}
		old, err := Deserialize[uint64, int](bytes.NewReader(withLayoutByte(buf.Bytes(), byte(kary.DepthFirst))), decInt)
		if err != nil || old.Config().Lanes != kary.KeyLanes {
			t.Fatalf("%v: a stream without the lane bit read back as %+v (%v)", lanes, old.Config(), err)
		}
		for bit := 1; bit < 7; bit++ {
			bad := withLayoutByte(buf.Bytes(), buf.Bytes()[len(magic)+2]|1<<bit)
			if _, err := Deserialize[uint64, int](bytes.NewReader(bad), decInt); err == nil {
				t.Fatalf("%v: layout byte %#x accepted", lanes, bad[len(magic)+2])
			}
		}
	}
}
