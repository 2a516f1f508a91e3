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
// a path-copying index (Forker) behind snapshot publication so that
// readers never take a lock and never observe a torn tree, while one
// writer at a time builds and publishes the next version.
//
// Nodes are shifted in place on insert and delete (§3.2), so a
// published tree must never be written. Each write forks the published
// version in O(1), copies the nodes on its root-to-leaf path before it
// changes them (the §3.2 locality property keeps that to the nodes it
// touches), and publishes the fork's root with one atomic pointer swap.
// Readers pin the current version in a per-reader epoch slot (announce
// the version's sequence number, re-validate the pointer, read,
// release).
//
// The nodes a write replaces are retired under the sequence it
// publishes, r: only versions below r reach them. The next writes reuse
// their storage for copies once every claimed slot announces 0 or a
// sequence ≥ r, and the version structs and tree headers of superseded
// versions are recycled under the same rule. So the writer never waits
// for a reader, never copies a whole tree, and in steady state allocates
// nothing; a long-held Snapshot only keeps the nodes it reaches, and the
// writer allocates fresh copies meanwhile.
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
	// reader loads anyway, and lets the writer's slot scan skip the
	// slots no reader ever used.
	claimed  atomic.Uint64
	slots    []epochSlot
	slotMask uint32

	// Writer state, guarded by mu. retired holds the superseded versions,
	// each retired under the sequence that superseded it, and the forks
	// of Delete misses, which no reader saw. released is the highest
	// sequence whose retired nodes the writer has released for reuse and
	// copied the nodes writes copied: plain counters, read under mu by
	// MVCCInfo, so a write pays no atomic add for them.
	mu       sync.Mutex
	retired  Recycler[version[K, V]]
	released uint64
	copied   uint64

	health obs.MVCC
}

// version is one published, immutable tree state. The sequence number
// starts at 1 (0 marks a free epoch slot) and increases by one per
// published mutation.
//
// Once stored into x.current a version is frozen until no reader can
// reach it — that is the whole MVCC contract (DESIGN.md §6): lock-free
// readers validate the pointer and the sequence and then dereference
// without synchronization, which is only sound if no write follows the
// publish while a reader may hold it. The writer recycles a superseded
// version only in fork (//simdtree:prepublish); seq is atomic because a
// reader holding a stale pointer reads it before it validates. The
// publishguard analyzer enforces the freeze statically; the invariants
// build re-checks the sequence discipline dynamically.
//
//simdtree:published
type version[K keys.Key, V any] struct {
	tree Forker[K, V]
	seq  atomic.Uint64
}

// epochSlot is one per-reader announcement cell: 0 when free, otherwise
// the sequence number of the version its owner has pinned. Slots are
// padded to 128 bytes so concurrent readers on different slots never
// share a cache line (or its adjacent-line prefetch pair).
type epochSlot struct {
	epoch atomic.Uint64
	_     [15]uint64
}

// NewVersioned wraps the index newIndex builds, which must start empty,
// in MVCC snapshot publication; newIndex is called once. The index must
// implement Forker (every tree of the module does): NewVersioned panics
// on one that does not, and on a nil constructor. The constructor
// returns Index rather than Forker so that callers written against
// Index keep compiling.
func NewVersioned[K keys.Key, V any](newIndex func() Index[K, V]) *Versioned[K, V] {
	if newIndex == nil {
		panic("index: NewVersioned requires an index constructor") //simdtree:allowpanic construction contract, documented above
	}
	tree, ok := newIndex().(Forker[K, V])
	if !ok {
		panic("index: NewVersioned requires an index that implements index.Forker") //simdtree:allowpanic construction contract, documented above
	}
	x := &Versioned[K, V]{released: 1}
	size := pow2.CeilCap(8*runtime.GOMAXPROCS(0), 64)
	x.slots = make([]epochSlot, size)
	x.slotMask = uint32(size - 1)
	v := &version[K, V]{tree: tree}
	v.seq.Store(1)
	x.current.Store(v)
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
// or stack depth, so claimed_slots, and the slots every writer scan
// reads, stay put while a dashboard polls. The protocol is
// announce-then-validate: store the current version's sequence into an
// owned slot, then re-load the current pointer — if it still names the
// same version under the same sequence, the writer's slot scan (which
// runs after the publish that supersedes it) is guaranteed to see the
// announcement, so nothing the version reaches is reused while pinned.
// The sequence is checked too because version structs are recycled: a
// stale pointer may name a newer version by the time it validates. If
// either moved, re-announce the newer version and check again. No lock
// is taken and no step blocks on the writer. The slot's claimed bit is
// set before the first announcement; once set, that costs one plain
// load.
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
			seq := v.seq.Load()
			if s.epoch.CompareAndSwap(0, seq) {
				for {
					cur := x.current.Load()
					if cur == v && v.seq.Load() == seq {
						if invariants.Enabled {
							invariants.Assert(seq != 0, "pinned version has zero sequence")
							invariants.Assert(s.epoch.Load() == seq, "epoch slot does not announce the pinned version")
						}
						return v, s
					}
					v = cur
					seq = v.seq.Load()
					s.epoch.Store(seq)
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
// called to free the view's epoch slot. While it is held, the nodes
// later writes replace are not reused (see Versioned).
func (x *Versioned[K, V]) Snapshot() *Snapshot[K, V] {
	v, s := x.pin(readerSlotHint())
	return &Snapshot[K, V]{
		parts: newParts([]Index[K, V]{v.tree}, false),
		seqs:  []uint64{v.seq.Load()},
		slots: []*epochSlot{s},
	}
}

// Version reports the sequence number of the currently published
// version. It starts at 1 for the empty index and increases by one per
// published mutation.
func (x *Versioned[K, V]) Version() uint64 { return x.current.Load().seq.Load() }

// MVCCInfo reports the health of the snapshot publication: the current
// version, how many readers are pinned right now, how many slots the
// claimed bits cover, how many versions' retired nodes a pinned reader
// still holds back, and the publication, copy and reclamation counters.
func (x *Versioned[K, V]) MVCCInfo() obs.MVCCSnapshot {
	snap := x.health.Read()
	cur := x.Version()
	snap.Versions = []uint64{cur}
	for c := x.claimed.Load(); c != 0; c &= c - 1 {
		snap.ClaimedSlots += (len(x.slots) - bits.TrailingZeros64(c) + 63) / 64
	}
	for i := range x.slots {
		if x.slots[i].epoch.Load() != 0 {
			snap.ActiveSnapshots++
		}
	}
	if safe := x.safe(cur); safe < cur {
		snap.RetiredVersions = int(cur - safe)
	}
	x.mu.Lock()
	snap.Reclaimed, snap.CopiedNodes = x.released-1, x.copied
	x.mu.Unlock()
	return snap
}

// Put stores val under key, returning true when the key was new. The
// mutation is applied to a fork of the published version and published
// as a new version with one atomic pointer swap; concurrent readers
// continue undisturbed on the previous version.
func (x *Versioned[K, V]) Put(key K, val V) bool {
	x.mu.Lock()
	start := x.startClock()
	v := x.fork()
	added := v.tree.Put(key, val)
	x.publish(v, start)
	x.mu.Unlock()
	return added
}

// Delete removes key, reporting whether it was present. A miss copies
// nothing and publishes nothing; its fork goes back for a later write.
func (x *Versioned[K, V]) Delete(key K) bool {
	x.mu.Lock()
	start := x.startClock()
	v := x.fork()
	removed := v.tree.Delete(key)
	if removed {
		x.publish(v, start)
	} else {
		x.retired.Retire(v, v.seq.Load()-1)
	}
	x.mu.Unlock()
	return removed
}

// fork returns the version the running write builds: a fork of the
// published tree for the next sequence, in a retired version's struct
// and tree header when no reader can reach them. It scans the claimed
// slots once for the safe sequence, releases the nodes retired at or
// below it, and passes it to the fork for its copies. Callers hold mu.
//
//simdtree:prepublish
func (x *Versioned[K, V]) fork() *version[K, V] {
	cur := x.current.Load()
	seq := cur.seq.Load()
	safe := x.safe(seq)
	x.released = max(x.released, safe)
	v := x.retired.Reuse(safe)
	if v == nil {
		v = new(version[K, V])
	}
	v.tree = cur.tree.Fork(v.tree, seq+1, safe)
	v.seq.Store(seq + 1)
	return v
}

// safe returns the highest sequence at or below which retired nodes no
// reader can reach: the smallest sequence a claimed slot announces, or
// cur when none does. Nodes retired under sequence r are reachable only
// from versions below r, and a reader that validated such a version
// announced it before the publish of r, so before this scan, which
// therefore sees it. Only claimed slots are read: a reader claims its
// slot before it announces. Bit b covers the slots b, b+64, b+128, … .
func (x *Versioned[K, V]) safe(cur uint64) uint64 {
	min := cur
	for c := x.claimed.Load(); c != 0; c &= c - 1 {
		for i := uint32(bits.TrailingZeros64(c)); i <= x.slotMask; i += 64 {
			if e := x.slots[i&x.slotMask].epoch.Load(); e != 0 && e < min {
				min = e
			}
		}
	}
	if invariants.Enabled {
		claimed := x.claimed.Load()
		for i := range x.slots {
			if x.slots[i].epoch.Load() != 0 {
				invariants.Assertf(claimed&(1<<(i&63)) != 0, "slot %d announces a sequence without its claimed bit", i)
			}
		}
	}
	return min
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
	if (x.Version()+1)%publishStride != 0 {
		return -1
	}
	return time.Since(clockBase)
}

// publish swaps v in as the next version and retires the one it
// supersedes, together with its tree header, for a later fork. start is
// startClock's reading at the beginning of the write. Callers hold mu.
func (x *Versioned[K, V]) publish(v *version[K, V], start time.Duration) {
	cur := x.current.Load()
	if invariants.Enabled {
		invariants.Assertf(v.seq.Load() == cur.seq.Load()+1, "publishing seq %d over %d", v.seq.Load(), cur.seq.Load())
	}
	x.copied += uint64(v.tree.Copied())
	x.current.Store(v)
	x.retired.Retire(cur, v.seq.Load())
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
