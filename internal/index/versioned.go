package index

import (
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
// The scheme leans on the property that makes the paper's structures
// naturally persistent: linearized k-ary nodes are rebuilt wholesale on
// mutation (§3.2), so a published tree is never patched in place — the
// writer applies each mutation to a private mutable tree and publishes
// it with one atomic pointer swap. Readers pin the current version in a
// per-reader epoch slot (announce the version's sequence number,
// re-validate the pointer, read, release); the writer retires superseded
// versions and reclaims their trees only once no slot still announces
// their sequence.
//
// Reclamation is what keeps copy-on-write cheap. The writer rotates
// between (at least) two physical trees: the one currently published and
// the most recently drained retiree, which is caught up by replaying the
// short operation log of everything published since it was current —
// each mutation is applied exactly twice, never to a tree a reader can
// see. A long-pinned Snapshot merely parks its version's tree on the
// retired list: the writer clones the current tree once (counted in the
// MVCC health block) and rotation resumes with the copy.
//
// Get/GetBatch/Contains/Scan/Ascend/Min/Max/Len/IndexStats/Shape all run
// against a pinned immutable version: no mutex, no torn reads, and —
// unlike the lock-coupled wrappers — Shape and iteration see a perfectly
// consistent tree even mid-write-storm. Put/Delete serialize on an
// internal writer mutex. Versioned itself satisfies Index.
type Versioned[K keys.Key, V any] struct {
	current  atomic.Pointer[version[K, V]]
	slots    []epochSlot
	slotMask uint32

	// Writer state, guarded by mu. spare is the mutable tree the next
	// mutation will be applied to: its content equals version spareSeq,
	// and replaying log entries (spareSeq, current.seq] onto it yields
	// the published content. It is nil directly after a publish, until
	// the next write adopts a drained retiree (or clones).
	mu       sync.Mutex
	newIndex func() Index[K, V]
	spare    Index[K, V]
	spareSeq uint64
	retired  []*version[K, V]
	log      []logOp[K, V] // ops that produced versions logBase+1 .. current.seq
	logBase  uint64

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

// logOp is one logged mutation, replayed to catch a reclaimed tree up to
// the published state.
type logOp[K keys.Key, V any] struct {
	key K
	val V
	del bool
}

// maxReplayLog bounds the operation log while a pinned snapshot holds an
// old version open. Past the cap the oldest retired versions become
// non-adoptable — their trees go to the garbage collector when they
// drain — rather than the log growing without limit.
const maxReplayLog = 8192

// NewVersioned wraps an index built by newIndex in MVCC snapshot
// publication. newIndex is called for the initial version, once for the
// writer's shadow tree, and again only if a clone is ever forced; every
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
	x.spareSeq = 1
	x.logBase = 1
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

// pin announces the calling reader in a free epoch slot and returns the
// version it safely pinned. The protocol is announce-then-validate:
// store the current version's sequence into an owned slot, then re-load
// the current pointer — if it still names the same version, the writer's
// retire scan (which runs after its publish) is guaranteed to see the
// announcement, so the version's tree cannot be reclaimed while pinned.
// If the pointer moved, re-announce the newer version and check again.
// No lock is taken and no step blocks on the writer.
//
//simdtree:hotpath
func (x *Versioned[K, V]) pin() (*version[K, V], *epochSlot) {
	i := readerSlotHint() & x.slotMask
	for spins := 0; ; spins++ {
		s := &x.slots[i]
		if s.epoch.Load() == 0 {
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
	v, s := x.pin()
	val, ok := v.tree.Get(key)
	s.epoch.Store(0)
	return val, ok
}

// GetTraced is Get additionally returning the pinned lookup's cost and
// recording its descent into tr.
func (x *Versioned[K, V]) GetTraced(key K, tr *trace.Trace) (V, bool, obs.Cost) {
	v, s := x.pin()
	val, ok, c := v.tree.GetTraced(key, tr)
	s.epoch.Store(0)
	return val, ok, c
}

// Contains reports whether key is present in the published version.
func (x *Versioned[K, V]) Contains(key K) bool {
	v, s := x.pin()
	ok := v.tree.Contains(key)
	s.epoch.Store(0)
	return ok
}

// GetBatchInto looks up many keys at once against one pinned version —
// the whole batch observes a single consistent tree state.
func (x *Versioned[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	v, s := x.pin()
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
	v, s := x.pin()
	n := v.tree.Len()
	s.epoch.Store(0)
	return n
}

// Min returns the smallest key and its value of the published version.
func (x *Versioned[K, V]) Min() (K, V, bool) {
	v, s := x.pin()
	k, val, ok := v.tree.Min()
	s.epoch.Store(0)
	return k, val, ok
}

// Max returns the largest key and its value of the published version.
func (x *Versioned[K, V]) Max() (K, V, bool) {
	v, s := x.pin()
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
	v, s := x.pin()
	v.tree.Ascend(fn)
	s.epoch.Store(0)
}

// Scan calls fn for every item with lo ≤ key ≤ hi of one pinned version
// in ascending key order until fn returns false. The locking caveats of
// Ascend apply (there are none).
func (x *Versioned[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	v, s := x.pin()
	v.tree.Scan(lo, hi, fn)
	s.epoch.Store(0)
}

// IndexStats summarizes the published version — a consistent state even
// while writers run.
func (x *Versioned[K, V]) IndexStats() Stats {
	v, s := x.pin()
	st := v.tree.IndexStats()
	s.epoch.Store(0)
	return st
}

// Shape walks the published version and returns its structural-health
// report. The walk runs against a pinned immutable tree, so the report
// is exactly consistent regardless of concurrent writers.
func (x *Versioned[K, V]) Shape() shape.Report {
	v, s := x.pin()
	rep := v.tree.Shape()
	s.epoch.Store(0)
	return rep
}

// Snapshot returns a pinned read view of the currently published
// version. The view stays frozen — concurrent writers keep publishing
// new versions, none of which it observes — until Release, which must be
// called to free the view's epoch slot. A long-held snapshot costs the
// writer at most one full tree copy; see the package notes on
// reclamation.
func (x *Versioned[K, V]) Snapshot() *Snapshot[K, V] {
	v, s := x.pin()
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
// version, how many readers are pinned right now, how many superseded
// versions await draining, and the publication/reclamation counters.
func (x *Versioned[K, V]) MVCCInfo() obs.MVCCSnapshot {
	snap := x.health.Read()
	snap.Versions = []uint64{x.current.Load().seq}
	for i := range x.slots {
		if x.slots[i].epoch.Load() != 0 {
			snap.ActiveSnapshots++
		}
	}
	x.mu.Lock()
	snap.RetiredVersions = len(x.retired)
	x.mu.Unlock()
	return snap
}

// Put stores val under key, returning true when the key was new. The
// mutation is applied to the writer's private tree and published as a
// new version with one atomic pointer swap; concurrent readers continue
// undisturbed on the previous version.
func (x *Versioned[K, V]) Put(key K, val V) bool {
	x.mu.Lock()
	start := time.Now()
	t := x.writable()
	added := t.Put(key, val)
	x.publish(t, logOp[K, V]{key: key, val: val}, start)
	x.mu.Unlock()
	return added
}

// Delete removes key, reporting whether it was present. A miss changes
// nothing and publishes nothing.
func (x *Versioned[K, V]) Delete(key K) bool {
	x.mu.Lock()
	start := time.Now()
	t := x.writable()
	removed := t.Delete(key)
	if removed {
		x.publish(t, logOp[K, V]{key: key, del: true}, start)
	}
	x.mu.Unlock()
	return removed
}

// writable returns the writer's private mutable tree, caught up to the
// currently published content: a retired version's tree replayed
// forward through the operation log, or — when every retiree is still
// pinned — a fresh clone. Callers hold mu.
func (x *Versioned[K, V]) writable() Index[K, V] {
	cur := x.current.Load()
	if x.spare == nil {
		x.adoptOrClone(cur)
	}
	if invariants.Enabled {
		invariants.Assertf(x.spareSeq >= x.logBase && x.spareSeq <= cur.seq,
			"spare at seq %d outside replayable range [%d, %d]", x.spareSeq, x.logBase, cur.seq)
	}
	for _, op := range x.log[x.spareSeq-x.logBase:] {
		if op.del {
			x.spare.Delete(op.key)
		} else {
			x.spare.Put(op.key, op.val)
		}
	}
	x.spareSeq = cur.seq
	return x.spare
}

// adoptOrClone obtains a mutable tree: preferably the newest drained
// retiree (rotation — each mutation then costs two applications and no
// copying), falling back to a full copy of the published tree when every
// retired version is still pinned by a reader. The brief yield loop
// covers the common race where the just-retired version still carries a
// mid-flight Get.
func (x *Versioned[K, V]) adoptOrClone(cur *version[K, V]) {
	for attempt := 0; attempt < 64; attempt++ {
		if x.reclaim() {
			return
		}
		if len(x.retired) == 0 {
			break
		}
		runtime.Gosched()
	}
	x.spare = x.cloneTree(cur.tree)
	x.spareSeq = cur.seq
	x.health.RecordClone()
}

// reclaim scans the retired list: the newest drained version whose seq
// the log still covers is adopted as the writer's spare; other drained
// versions are released to the collector. It reports whether a spare was
// adopted. Callers hold mu.
func (x *Versioned[K, V]) reclaim() bool {
	var adopt *version[K, V]
	kept := x.retired[:0]
	released := 0
	for _, r := range x.retired {
		switch {
		case !x.drained(r):
			kept = append(kept, r)
		case r.seq >= x.logBase && (adopt == nil || r.seq > adopt.seq):
			if adopt != nil {
				released++
			}
			adopt = r
		default:
			released++
		}
	}
	// Zero the tail so dropped versions do not linger via the backing
	// array.
	for i := len(kept); i < len(x.retired); i++ {
		x.retired[i] = nil
	}
	x.retired = kept
	if adopt != nil {
		x.spare = adopt.tree
		x.spareSeq = adopt.seq
		released++
	}
	if released > 0 {
		x.health.RecordReclaim(released)
	}
	return adopt != nil
}

// drained reports whether no reader slot still pins v — the condition
// under which v's tree may be mutated or dropped. A slot protects
// exactly the version whose sequence it announces (a reader only ever
// dereferences the tree it successfully validated), so the check is for
// v's own sequence; the announce-then-validate pin protocol guarantees
// that any reader that validated v as current is visible here.
func (x *Versioned[K, V]) drained(v *version[K, V]) bool {
	for i := range x.slots {
		if x.slots[i].epoch.Load() == v.seq {
			return false
		}
	}
	return true
}

// cloneTree builds a fresh tree with the same content as src. Ascending
// insertion takes every structure's fast append path.
func (x *Versioned[K, V]) cloneTree(src Index[K, V]) Index[K, V] {
	t := x.newIndex()
	src.Ascend(func(k K, v V) bool {
		t.Put(k, v)
		return true
	})
	return t
}

// publish swaps t in as the next version, retires the previous one,
// appends the producing op to the replay log and trims what no retiree
// can need anymore. Callers hold mu.
func (x *Versioned[K, V]) publish(t Index[K, V], op logOp[K, V], start time.Time) {
	cur := x.current.Load()
	next := &version[K, V]{tree: t, seq: cur.seq + 1}
	if invariants.Enabled {
		invariants.Assertf(next.seq == cur.seq+1, "publish seq not monotone: %d -> %d", cur.seq, next.seq)
		invariants.Assertf(x.spareSeq == cur.seq, "publishing a tree not caught up: spare at seq %d, current %d", x.spareSeq, cur.seq)
		invariants.Assertf(x.logBase <= cur.seq, "replay log base %d beyond current seq %d", x.logBase, cur.seq)
	}
	x.current.Store(next)
	x.retired = append(x.retired, cur)
	x.spare = nil
	x.log = append(x.log, op)
	x.trimLog(next.seq)
	x.health.RecordPublish(time.Since(start))
}

// trimLog drops log entries no retired version can need: everything at
// or below the oldest retired sequence, and — past maxReplayLog —
// everything older than the cap, sacrificing the adoptability of
// long-pinned versions instead of growing without bound. Callers hold
// mu, with spare == nil (publish) so only retired versions constrain the
// floor.
func (x *Versioned[K, V]) trimLog(curSeq uint64) {
	floor := curSeq - 1
	for _, r := range x.retired {
		if r.seq < floor {
			floor = r.seq
		}
	}
	if curSeq-floor > maxReplayLog {
		floor = curSeq - maxReplayLog
	}
	if floor > x.logBase {
		n := floor - x.logBase
		x.log = x.log[n:]
		x.logBase = floor
	}
}

// Compile-time check: Versioned satisfies the full Index interface and
// the snapshot-publication faces.
var (
	_ Index[uint32, int]       = (*Versioned[uint32, int])(nil)
	_ Snapshotter[uint32, int] = (*Versioned[uint32, int])(nil)
	_ MVCCReporter             = (*Versioned[uint32, int])(nil)
)
