package driver

import (
	"context"
	"fmt"

	"repro/internal/concurrent"
	"repro/internal/index"
	"repro/internal/keys"
	"repro/internal/reqtrace"
	"repro/internal/trace"
)

// Target is the backend a workload runs against. Methods mirror the
// index layer's read/write surface but take a context and return errors,
// because a remote backend (segserve over HTTP) can be cancelled and can
// fail where the in-process index cannot. The context also carries the
// per-op request span when the run is traced (driver.WithTracer); remote
// targets propagate it on the wire, in-process ones attach descent
// evidence to it. Implementations must be safe for use from Spec.Clients
// goroutines at once.
type Target[K keys.Key, V any] interface {
	// Get returns the value under k and whether it was present.
	Get(ctx context.Context, k K) (V, bool, error)
	// Put stores v under k.
	Put(ctx context.Context, k K, v V) error
	// Delete removes k, reporting whether it was present.
	Delete(ctx context.Context, k K) (bool, error)
	// GetBatch looks up many keys at once, values and found mask in
	// input order.
	GetBatch(ctx context.Context, ks []K) ([]V, []bool, error)
	// Scan visits the items with lo ≤ key ≤ hi in ascending order, at
	// most limit of them, and returns how many it visited.
	Scan(ctx context.Context, lo, hi K, limit int) (int, error)
}

// IndexTarget adapts any index.Index — including its Versioned, Sharded
// and Instrumented compositions from the options facade — to the Target
// interface. The index must itself be safe for concurrent use when
// Spec.Clients > 1 (build it with WithSnapshots or WithShards).
type IndexTarget[K keys.Key, V any] struct {
	ix index.Index[K, V]
}

// NewIndexTarget wraps ix.
func NewIndexTarget[K keys.Key, V any](ix index.Index[K, V]) *IndexTarget[K, V] {
	return &IndexTarget[K, V]{ix: ix}
}

// Get implements Target. When ctx carries a request span, the lookup
// runs traced and the descent is attached to the span — the in-process
// equivalent of segserve's sampled-request evidence.
func (t *IndexTarget[K, V]) Get(ctx context.Context, k K) (V, bool, error) {
	if sp := reqtrace.FromContext(ctx); sp != nil {
		tr := trace.New("get", fmt.Sprint(k))
		v, ok, _ := t.ix.GetTraced(k, tr)
		tr.Finish(ok)
		sp.AttachDescent(tr)
		return v, ok, nil
	}
	v, ok := t.ix.Get(k)
	return v, ok, nil
}

// Put implements Target.
func (t *IndexTarget[K, V]) Put(ctx context.Context, k K, v V) error {
	t.ix.Put(k, v)
	return nil
}

// Delete implements Target.
func (t *IndexTarget[K, V]) Delete(ctx context.Context, k K) (bool, error) {
	return t.ix.Delete(k), nil
}

// GetBatch implements Target.
func (t *IndexTarget[K, V]) GetBatch(ctx context.Context, ks []K) ([]V, []bool, error) {
	vs, found := t.ix.GetBatch(ks)
	return vs, found, nil
}

// Scan implements Target.
func (t *IndexTarget[K, V]) Scan(ctx context.Context, lo, hi K, limit int) (int, error) {
	n := 0
	t.ix.Scan(lo, hi, func(K, V) bool {
		n++
		return n < limit
	})
	return n, nil
}

// LockedTarget drives an index through a readers-writer lock
// (concurrent.Locked) — the pre-MVCC baseline, kept as a Target so the
// lock-vs-versioned comparison runs under identical mixed traffic.
type LockedTarget[K keys.Key, V any] struct {
	l *concurrent.Locked[K, V]
	// ix is the same index the lock wraps; Scan reaches it under the
	// read lock via View, which Locked's Basic surface cannot express.
	ix index.Index[K, V]
}

// NewLockedTarget wraps ix in a fresh RW lock. The caller must not use
// ix directly afterwards.
func NewLockedTarget[K keys.Key, V any](ix index.Index[K, V]) *LockedTarget[K, V] {
	return &LockedTarget[K, V]{l: concurrent.NewLocked[K, V](ix), ix: ix}
}

// Get implements Target.
func (t *LockedTarget[K, V]) Get(ctx context.Context, k K) (V, bool, error) {
	v, ok := t.l.Get(k)
	return v, ok, nil
}

// Put implements Target.
func (t *LockedTarget[K, V]) Put(ctx context.Context, k K, v V) error {
	t.l.Put(k, v)
	return nil
}

// Delete implements Target.
func (t *LockedTarget[K, V]) Delete(ctx context.Context, k K) (bool, error) {
	return t.l.Delete(k), nil
}

// GetBatch implements Target (one read-lock acquisition for the batch).
func (t *LockedTarget[K, V]) GetBatch(ctx context.Context, ks []K) ([]V, []bool, error) {
	vs, found := t.l.GetBatch(ks)
	return vs, found, nil
}

// Scan implements Target, holding the read lock for the whole range.
func (t *LockedTarget[K, V]) Scan(ctx context.Context, lo, hi K, limit int) (int, error) {
	n := 0
	t.l.View(func(concurrent.Map[K, V]) {
		t.ix.Scan(lo, hi, func(K, V) bool {
			n++
			return n < limit
		})
	})
	return n, nil
}
