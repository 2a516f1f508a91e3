package index

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/pow2"
	"repro/internal/shape"
	"repro/internal/trace"
)

// Versioned is the MVCC concurrency layer of the index stack: it wraps
// any Index behind copy-on-write snapshot publication so that readers
// never take a lock and never observe a torn tree, while one writer at a
// time builds and publishes the next version.
//
// Nodes are shifted in place on insert and delete (§3.2), so a
// published tree must never be the one the writer mutates: the writer
// applies each mutation to a private tree and publishes it with one
// atomic pointer swap. Readers pin the current version in a per-reader
// epoch slot (announce the version's sequence number, re-validate the
// pointer, read, release); the writer mutates a superseded version's
// tree only once no slot still announces its sequence.
//
// The writer keeps two trees. After a publish, the version just
// superseded (prev) is one op behind the published content: the next
// write adopts prev's tree once it drains and replays that op, so each
// mutation is applied exactly twice and nothing is copied. A Snapshot
// still holding prev at that point makes the writer clone the published
// tree instead (counted in the MVCC health block) and drop prev to the
// collector; rotation resumes with the copy.
//
// Get/GetBatch/Contains/Scan/Ascend/Min/Max/Len/IndexStats/Shape all run
// against a pinned immutable version: no mutex, no torn reads, and —
// unlike the lock-coupled wrappers — Shape and iteration see a perfectly
// consistent tree even mid-write-storm. Put/Delete serialize on an
// internal writer mutex. Versioned itself satisfies Index.
type Versioned[K keys.Key, V any] struct {
	current atomic.Pointer[version[K, V]]
	// claimed has bit i%64 set once a reader has announced in slot i;
	// bits never clear. It sits in current's cache line, which every
	// reader loads anyway, and lets the writer's drain skip the slots no
	// reader ever used.
	claimed  atomic.Uint64
	slots    []epochSlot
	slotMask uint32

	// Writer state, guarded by mu. spare is a mutable tree holding the
	// published content — left by construction or by a Delete miss —
	// and nil after every publish. prev is the version current
	// superseded and last the op that turned prev into current; prev is
	// non-nil whenever spare is nil, until the next write adopts or
	// drops it.
	mu       sync.Mutex
	newIndex func() Index[K, V]
	spare    Index[K, V]
	prev     *version[K, V]
	last     writeOp[K, V]

	health obs.MVCC
}

// version is one published, immutable tree state. The sequence number
// starts at 1 (0 marks a free epoch slot) and increases by one per
// published mutation.
//
// Once stored into x.current a version is frozen — that is the whole
// MVCC contract (DESIGN.md §6): lock-free readers validate the pointer
// and then dereference without synchronization, which is only sound if
// no write ever follows the publish. The publishguard analyzer enforces
// the freeze statically; the invariants build re-checks the sequence
// discipline dynamically.
//
//simdtree:published
type version[K keys.Key, V any] struct {
	tree Index[K, V]
	seq  uint64
}

// epochSlot is one per-reader announcement cell: 0 when free, otherwise
// the sequence number of the version its owner has pinned. Slots are
// padded to 128 bytes so concurrent readers on different slots never
// share a cache line (or its adjacent-line prefetch pair).
type epochSlot struct {
	epoch atomic.Uint64
	_     [15]uint64
}

// writeOp is one mutation, kept to catch prev's tree up to the
// published content.
type writeOp[K keys.Key, V any] struct {
	key K
	val V
	del bool
}

// apply performs the mutation on t.
func (op writeOp[K, V]) apply(t Index[K, V]) {
	if op.del {
		t.Delete(op.key)
	} else {
		t.Put(op.key, op.val)
	}
}

// NewVersioned wraps an index built by newIndex in MVCC snapshot
// publication. newIndex is called for the initial version, once for the
// writer's spare tree, and again only if a clone is ever forced; every
// tree it returns must start empty. It panics on a nil constructor.
func NewVersioned[K keys.Key, V any](newIndex func() Index[K, V]) *Versioned[K, V] {
	if newIndex == nil {
		panic("index: NewVersioned requires an index constructor") //simdtree:allowpanic construction contract, documented above
	}
	x := &Versioned[K, V]{newIndex: newIndex}
	size := pow2.CeilCap(8*runtime.GOMAXPROCS(0), 64)
	x.slots = make([]epochSlot, size)
	x.slotMask = uint32(size - 1)
	x.spare = newIndex()
	x.current.Store(&version[K, V]{tree: newIndex(), seq: 1})
	return x
}

// Snapshotter is implemented by every index layer that can hand out
// pinned copy-on-write read views: Versioned directly, Sharded by
// pinning each shard's current version once.
type Snapshotter[K keys.Key, V any] interface {
	// Snapshot returns a pinned, immutable read view. The caller must
	// Release it.
	Snapshot() *Snapshot[K, V]
}

// MVCCReporter is implemented by every index layer that can report the
// health of its snapshot publication: current version numbers, pinned
// readers, publication and reclamation counters.
type MVCCReporter interface {
	MVCCInfo() obs.MVCCSnapshot
}

// The snapshot-pinned point lookup is a zero-allocation hot path; the
// directive keeps the //simdtree:hotpath annotations checked by
// cmd/simdvet.
//
//simdtree:kernels ^Versioned\.(Get|pin)$|^readerSlotHint$

// readerSlotHint spreads concurrent readers over the epoch-slot array.
// Goroutine identity is approximated by the current stack address, the
// same idiom obs.Counters uses for its shards: distinct goroutines run
// on distinct stacks, so discarding the low bits and masking yields a
// stable, well-spread starting slot with no allocation. Collisions only
// cost one CAS probe, never correctness.
//
//simdtree:hotpath
func readerSlotHint() uint32 {
	var marker byte
	return uint32(uintptr(unsafe.Pointer(&marker)) >> 10)
}

// pin announces the calling reader in a free epoch slot, probing from
// slot hint (masked to the array), and returns the version it safely
// pinned. Readers pass readerSlotHint(). The readers that observability
// endpoints run (Shape, IndexStats) pass 0 instead: each render then
// reuses one slot rather than claiming a new one per serving goroutine
// or stack depth, so claimed_slots, and the slots every writer drain
// reads, stay put while a dashboard polls. The protocol is
// announce-then-validate: store the current version's sequence into an
// owned slot, then re-load the current pointer — if it still names the
// same version, the writer's drain check (which runs after its publish)
// is guaranteed to see the announcement, so the version's tree cannot be
// reclaimed while pinned. If the pointer moved, re-announce the newer
// version and check again. No lock is taken and no step blocks on the
// writer. The slot's claimed bit is set before the first announcement;
// once set, that costs one plain load.
//
//simdtree:hotpath
func (x *Versioned[K, V]) pin(hint uint32) (*version[K, V], *epochSlot) {
	i := hint & x.slotMask
	for spins := 0; ; spins++ {
		s := &x.slots[i]
		if s.epoch.Load() == 0 {
			// Claim before announcing: a writer that sees the
			// announcement also sees the claim.
			if bit := uint64(1) << (i & 63); x.claimed.Load()&bit == 0 {
				x.claimed.Or(bit)
			}
			v := x.current.Load()
			if s.epoch.CompareAndSwap(0, v.seq) {
				for {
					cur := x.current.Load()
					if cur == v {
						if invariants.Enabled {
							invariants.Assert(v.seq != 0, "pinned version has zero sequence")
							invariants.Assert(s.epoch.Load() == v.seq, "epoch slot does not announce the pinned version")
						}
						return v, s
					}
					v = cur
					s.epoch.Store(v.seq)
				}
			}
		}
		i = (i + 1) & x.slotMask
		if spins&63 == 63 {
			// All slots transiently busy — yield rather than burn the
			// core; readers release slots within one operation.
			runtime.Gosched()
		}
	}
}

// Get returns the value stored under key, if present, read lock-free
// from the currently published version.
//
//simdtree:hotpath
func (x *Versioned[K, V]) Get(key K) (V, bool) {
	v, s := x.pin(readerSlotHint())
	val, ok := v.tree.Get(key)
	s.epoch.Store(0)
	return val, ok
}

// GetTraced is Get additionally returning the pinned lookup's cost and
// recording its descent into tr.
func (x *Versioned[K, V]) GetTraced(key K, tr *trace.Trace) (V, bool, obs.Cost) {
	v, s := x.pin(readerSlotHint())
	val, ok, c := v.tree.GetTraced(key, tr)
	s.epoch.Store(0)
	return val, ok, c
}

// Contains reports whether key is present in the published version.
func (x *Versioned[K, V]) Contains(key K) bool {
	v, s := x.pin(readerSlotHint())
	ok := v.tree.Contains(key)
	s.epoch.Store(0)
	return ok
}

// GetBatchInto looks up many keys at once against one pinned version —
// the whole batch observes a single consistent tree state.
func (x *Versioned[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	v, s := x.pin(readerSlotHint())
	v.tree.GetBatchInto(ks, vals, found)
	s.epoch.Store(0)
}

// GetBatch is GetBatchInto into fresh slices.
func (x *Versioned[K, V]) GetBatch(ks []K) ([]V, []bool) { return GetBatch[K, V](x, ks) }

// ContainsBatch reports presence for many keys at once against one
// pinned version.
func (x *Versioned[K, V]) ContainsBatch(ks []K) []bool { return ContainsBatch[K, V](x, ks) }

// Len reports the number of items in the published version.
func (x *Versioned[K, V]) Len() int {
	v, s := x.pin(readerSlotHint())
	n := v.tree.Len()
	s.epoch.Store(0)
	return n
}

// Min returns the smallest key and its value of the published version.
func (x *Versioned[K, V]) Min() (K, V, bool) {
	v, s := x.pin(readerSlotHint())
	k, val, ok := v.tree.Min()
	s.epoch.Store(0)
	return k, val, ok
}

// Max returns the largest key and its value of the published version.
func (x *Versioned[K, V]) Max() (K, V, bool) {
	v, s := x.pin(readerSlotHint())
	k, val, ok := v.tree.Max()
	s.epoch.Store(0)
	return k, val, ok
}

// Ascend calls fn for every item of one pinned version in ascending key
// order until fn returns false. Unlike the lock-coupled wrappers, fn
// runs without any lock held: it observes a frozen tree, and it may even
// mutate the index — mutations build later versions and are invisible to
// the iteration. The pinned version's tree is parked until fn returns.
func (x *Versioned[K, V]) Ascend(fn func(K, V) bool) {
	v, s := x.pin(readerSlotHint())
	v.tree.Ascend(fn)
	s.epoch.Store(0)
}

// Scan calls fn for every item with lo ≤ key ≤ hi of one pinned version
// in ascending key order until fn returns false. The locking caveats of
// Ascend apply (there are none).
func (x *Versioned[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	v, s := x.pin(readerSlotHint())
	v.tree.Scan(lo, hi, fn)
	s.epoch.Store(0)
}

// IndexStats summarizes the published version — a consistent state even
// while writers run.
func (x *Versioned[K, V]) IndexStats() Stats {
	v, s := x.pin(0)
	st := v.tree.IndexStats()
	s.epoch.Store(0)
	return st
}

// Shape walks the published version and returns its structural-health
// report. The walk runs against a pinned immutable tree, so the report
// is exactly consistent regardless of concurrent writers.
func (x *Versioned[K, V]) Shape() shape.Report {
	v, s := x.pin(0)
	rep := v.tree.Shape()
	s.epoch.Store(0)
	return rep
}

// Snapshot returns a pinned read view of the currently published
// version. The view stays frozen — concurrent writers keep publishing
// new versions, none of which it observes — until Release, which must be
// called to free the view's epoch slot. A snapshot held across two
// writes costs the writer one full tree copy; see the package notes on
// reclamation.
func (x *Versioned[K, V]) Snapshot() *Snapshot[K, V] {
	v, s := x.pin(readerSlotHint())
	return &Snapshot[K, V]{
		parts: newParts([]Index[K, V]{v.tree}, false),
		seqs:  []uint64{v.seq},
		slots: []*epochSlot{s},
	}
}

// Version reports the sequence number of the currently published
// version. It starts at 1 for the empty index and increases by one per
// published mutation.
func (x *Versioned[K, V]) Version() uint64 { return x.current.Load().seq }

// MVCCInfo reports the health of the snapshot publication: the current
// version, how many readers are pinned right now, how many slots the
// claimed bits cover, whether the writer holds a superseded version for
// reuse, and the publication/reclamation counters.
func (x *Versioned[K, V]) MVCCInfo() obs.MVCCSnapshot {
	snap := x.health.Read()
	snap.Versions = []uint64{x.current.Load().seq}
	for c := x.claimed.Load(); c != 0; c &= c - 1 {
		snap.ClaimedSlots += (len(x.slots) - bits.TrailingZeros64(c) + 63) / 64
	}
	for i := range x.slots {
		if x.slots[i].epoch.Load() != 0 {
			snap.ActiveSnapshots++
		}
	}
	x.mu.Lock()
	if x.prev != nil {
		snap.RetiredVersions = 1
	}
	x.mu.Unlock()
	return snap
}

// Put stores val under key, returning true when the key was new. The
// mutation is applied to the writer's private tree and published as a
// new version with one atomic pointer swap; concurrent readers continue
// undisturbed on the previous version.
func (x *Versioned[K, V]) Put(key K, val V) bool {
	x.mu.Lock()
	start := x.startClock()
	t := x.writable()
	added := t.Put(key, val)
	x.publish(t, writeOp[K, V]{key: key, val: val}, start)
	x.mu.Unlock()
	return added
}

// Delete removes key, reporting whether it was present. A miss changes
// nothing and publishes nothing.
func (x *Versioned[K, V]) Delete(key K) bool {
	x.mu.Lock()
	start := x.startClock()
	t := x.writable()
	removed := t.Delete(key)
	if removed {
		x.publish(t, writeOp[K, V]{key: key, del: true}, start)
	}
	x.mu.Unlock()
	return removed
}

// writable returns the writer's private mutable tree, holding the
// currently published content: the spare if one is left, else prev's
// tree with the last op replayed onto it, else — when a reader still
// pins prev — a fresh clone. Callers hold mu.
func (x *Versioned[K, V]) writable() Index[K, V] {
	if x.spare != nil {
		return x.spare
	}
	cur := x.current.Load()
	if x.drained(x.prev) {
		if invariants.Enabled {
			invariants.Assertf(x.prev.seq+1 == cur.seq, "prev at seq %d is not one op behind current %d", x.prev.seq, cur.seq)
		}
		x.spare = x.prev.tree
		x.last.apply(x.spare)
		x.health.RecordReclaim()
	} else {
		x.spare = x.cloneTree(cur.tree)
		x.health.RecordClone()
	}
	x.prev = nil
	if invariants.Enabled {
		invariants.Assertf(x.spare.Len() == cur.tree.Len(), "writable tree holds %d keys, published %d", x.spare.Len(), cur.tree.Len())
	}
	return x.spare
}

// drained reports whether no reader slot pins v — the condition under
// which v's tree may be mutated — within a brief yield loop that covers
// the common race where v still carries a mid-flight Get. A slot
// protects exactly the version whose sequence it announces (a reader
// only ever dereferences the tree it successfully validated), so the
// check is for v's own sequence; the announce-then-validate pin protocol
// guarantees that any reader that validated v as current is visible
// here. Only claimed slots are read: a reader that validated v claimed
// its slot before announcing, and so before the publish that superseded
// v, which precedes this check.
func (x *Versioned[K, V]) drained(v *version[K, V]) bool {
	for attempt := 0; attempt < 64; attempt++ {
		if !x.pinned(v.seq) {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// pinned reports whether a claimed slot announces seq. Bit b covers the
// slots b, b+64, b+128, … .
func (x *Versioned[K, V]) pinned(seq uint64) bool {
	for c := x.claimed.Load(); c != 0; c &= c - 1 {
		for i := uint32(bits.TrailingZeros64(c)); i <= x.slotMask; i += 64 {
			if x.slots[i&x.slotMask].epoch.Load() == seq {
				return true
			}
		}
	}
	return false
}

// cloneTree builds a fresh tree with the same content as src. Ascending
// insertion takes every structure's fast append path; in the B+-Trees
// it fills each leaf before starting the next.
func (x *Versioned[K, V]) cloneTree(src Index[K, V]) Index[K, V] {
	t := x.newIndex()
	src.Ascend(func(k K, v V) bool {
		t.Put(k, v)
		return true
	})
	return t
}

// clockBase anchors the publish timer: time.Since of a time carrying a
// monotonic reading reads only the monotonic clock, where time.Now also
// reads the wall clock.
var clockBase = time.Now()

// publishStride is the publish timer's sampling stride: only the write
// that would publish a sequence divisible by it reads the clock, and its
// latency is recorded for publishStride writes.
const publishStride = 16

// startClock returns the time.Since(clockBase) at which a write begins
// if the version it would publish is timed, else -1. Callers hold mu.
func (x *Versioned[K, V]) startClock() time.Duration {
	if (x.current.Load().seq+1)%publishStride != 0 {
		return -1
	}
	return time.Since(clockBase)
}

// publish swaps t in as the next version and keeps the superseded one,
// with op, as prev. start is startClock's reading at the beginning of
// the write. Callers hold mu.
func (x *Versioned[K, V]) publish(t Index[K, V], op writeOp[K, V], start time.Duration) {
	cur := x.current.Load()
	next := &version[K, V]{tree: t, seq: cur.seq + 1}
	x.current.Store(next)
	x.prev, x.last = cur, op
	x.spare = nil
	if start < 0 {
		x.health.RecordPublish()
	} else {
		x.health.RecordTimedPublish(time.Since(clockBase)-start, publishStride)
	}
}

// Compile-time check: Versioned satisfies the full Index interface and
// the snapshot-publication faces.
var (
	_ Index[uint32, int]       = (*Versioned[uint32, int])(nil)
	_ Snapshotter[uint32, int] = (*Versioned[uint32, int])(nil)
	_ MVCCReporter             = (*Versioned[uint32, int])(nil)
)
