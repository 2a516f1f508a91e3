package kary

import (
	"strings"
	"testing"

	"repro/internal/keys"
)

// White-box corruption tests: Validate must catch damaged internal state.

func TestValidateCatchesCorruptKeyData(t *testing.T) {
	tree := Build([]uint32{10, 20, 30, 40, 50, 60, 70}, BreadthFirst)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the slot holding the smallest key with a huge value: the
	// delinearized sequence is no longer sorted.
	keys.PutAt(tree.data, tree.pos(0), uint32(99999))
	if err := tree.Validate(); err == nil {
		t.Fatal("corrupt key data accepted")
	}
}

func TestValidateCatchesDuplicateKeys(t *testing.T) {
	tree := Build([]uint32{10, 20, 30, 40}, DepthFirst)
	keys.PutAt(tree.data, tree.pos(1), uint32(10)) // duplicate of key 0
	err := tree.Validate()
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	if !strings.Contains(err.Error(), "duplicate") && !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateCatchesSMaxMismatch(t *testing.T) {
	tree := Build([]uint32{1, 2, 3}, BreadthFirst)
	tree.top = keys.OrderedBits(uint32(999))
	if err := tree.Validate(); err == nil {
		t.Fatal("smax mismatch accepted")
	}
}

func TestValidateCatchesMisalignedStorage(t *testing.T) {
	tree := Build([]uint32{1, 2, 3, 4, 5}, BreadthFirst)
	tree.stored++
	if err := tree.Validate(); err == nil {
		t.Fatal("misaligned storage accepted")
	}
}

func TestValidateCatchesZeroValueTree(t *testing.T) {
	var tree Tree[uint32]
	if err := tree.Validate(); err == nil {
		t.Fatal("zero-value tree accepted")
	}
}

func TestValidateCatchesPhantomStorageOnEmptyTree(t *testing.T) {
	tree := BuildUnchecked[uint32](nil, BreadthFirst)
	tree.stored = 4
	tree.data = make([]byte, 16)
	if err := tree.Validate(); err == nil {
		t.Fatal("phantom storage accepted")
	}
}
