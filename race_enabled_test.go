//go:build race

package simdtree_test

// raceEnabled reports a -race build: sync.Pool then drops pooled items
// at random, and the compiler no longer folds append(s, make([]T, n)...)
// into one allocation, so allocation gates over pooled scratch or
// size-class growth cannot hold.
const raceEnabled = true
