// Package atomic is a fixture stand-in for sync/atomic: the analyzers
// match the package by name, so these minimal shapes are enough.
package atomic

type Uint64 struct{ v uint64 }

func (x *Uint64) Load() uint64 { return x.v }

func (x *Uint64) Store(v uint64) { x.v = v }

func (x *Uint64) Add(d uint64) uint64 {
	x.v += d
	return x.v
}

type Pointer[T any] struct{ v *T }

func (x *Pointer[T]) Load() *T { return x.v }

func (x *Pointer[T]) Store(v *T) { x.v = v }

func (x *Uint64) Or(m uint64) uint64 {
	old := x.v
	x.v |= m
	return old
}
