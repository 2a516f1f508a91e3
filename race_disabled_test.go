//go:build !race

package simdtree_test

// raceEnabled reports a -race build: sync.Pool then drops pooled items
// at random, so allocation gates over pooled scratch cannot hold.
const raceEnabled = false
