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
// release). A standalone Versioned owns its slot array; the shards of a
// Sharded index share one, and each announcement carries its shard's
// tag.
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
	// readers is a copy of the reader-slot array's header: the
	// Versioned's own, or the one every shard of a Sharded shares. A
	// copy, not a pointer, so pin loads no pointer before the slot.
	readers readerSlots
	// tag is this publisher's shard index in the high shardBits bits of
	// an announcement word (0 for a standalone Versioned): readers of
	// other shards announce other tags, and safe reads only its own.
	tag uint64

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

// An announcement word packs the pinning shard's index into its high
// shardBits bits and the pinned sequence into the low seqBits, so
// shards that share one slot array keep their own sequence spaces: a
// writer's scan reads only its own shard's announcements. The top tag,
// wildcardShard, marks a whole-index Snapshot's slot, whose per-shard
// sequences sit behind the slot's seqs pointer. A Sharded index has at
// most maxShards shards, and a shard publishes at most seqMask versions
// (2^52: 140 years at one publish per microsecond) before its writes
// panic rather than spill into the tag.
const (
	shardBits     = 12
	seqBits       = 64 - shardBits
	seqMask       = 1<<seqBits - 1
	wildcardShard = 1<<shardBits - 1
	maxShards     = wildcardShard
	wildcard      = wildcardShard << seqBits
)

// epochSlot is one per-reader announcement cell: 0 when free, otherwise
// an announcement word (tag | sequence, or wildcard). seqs is set only
// while the slot announces wildcard, by the whole-index Snapshot that
// claimed it: its per-shard sequences, 0 until it has announced that
// shard. Slots are padded to 128 bytes so concurrent readers on
// different slots never share a cache line (or its adjacent-line
// prefetch pair).
type epochSlot struct {
	epoch atomic.Uint64
	seqs  atomic.Pointer[[]atomic.Uint64]
	_     [14]uint64
}

// seqOf returns the sequence the slot announces for shard, or 0 when it
// announces none: free, another shard's tag, or a wildcard whose
// snapshot has not announced this shard yet (it then validates against
// a version at least as new as the one the scanning writer published).
// A wildcard slot re-claimed mid-scan yields the new owner's sequence or
// 0; either bounds what a reader pinned before the scan's publish holds.
func (s *epochSlot) seqOf(shard uint64) uint64 {
	e := s.epoch.Load()
	switch e >> seqBits {
	case shard:
		return e & seqMask
	case wildcardShard:
		if p := s.seqs.Load(); p != nil {
			return (*p)[shard].Load()
		}
	}
	return 0
}

// readerSlots is the epoch-slot array the readers of one index announce
// in: a standalone Versioned's own, or the one every shard of a Sharded
// shares, sized max(8×GOMAXPROCS, 64) either way. Each publisher holds a
// copy of this header.
type readerSlots struct {
	slots []epochSlot
	// claimed points at a word whose bit i%64 is set once a reader has
	// announced in slot i; bits never clear. It lets a writer's scan skip
	// the slots no reader ever used. The word has a 128-byte allocation
	// of its own (claimWord), so reader stores never invalidate it.
	claimed *atomic.Uint64
	mask    uint32
	// shards is the number of publishers sharing the array.
	shards uint32
}

// claimWord is the claimed word padded to two cache lines.
type claimWord struct {
	bits atomic.Uint64
	_    [15]uint64
}

// newReaderSlots returns an array of at least n slots (a power of two)
// for shards publishers.
func newReaderSlots(n, shards int) readerSlots {
	size := pow2.CeilCap(n, 1)
	return readerSlots{
		slots:   make([]epochSlot, size),
		claimed: &new(claimWord).bits,
		mask:    uint32(size - 1),
		shards:  uint32(shards),
	}
}

// defaultReaderSlots is the slot count of an index: 8 per P, at least 64.
func defaultReaderSlots() int { return max(8*runtime.GOMAXPROCS(0), 64) }

// NewVersioned wraps the index newIndex builds, which must start empty,
// in MVCC snapshot publication; newIndex is called once. The index must
// implement Forker (every tree of the module does): NewVersioned panics
// on one that does not, and on a nil constructor. The constructor
// returns Index rather than Forker so that callers written against
// Index keep compiling.
func NewVersioned[K keys.Key, V any](newIndex func() Index[K, V]) *Versioned[K, V] {
	return newShard(newIndex, newReaderSlots(defaultReaderSlots(), 1), 0)
}

// newShard is NewVersioned for shard shard of an index whose readers
// announce in readers.
func newShard[K keys.Key, V any](newIndex func() Index[K, V], readers readerSlots, shard int) *Versioned[K, V] {
	if newIndex == nil {
		panic("index: NewVersioned requires an index constructor") //simdtree:allowpanic construction contract, documented above
	}
	tree, ok := newIndex().(Forker[K, V])
	if !ok {
		panic("index: NewVersioned requires an index that implements index.Forker") //simdtree:allowpanic construction contract, documented above
	}
	x := &Versioned[K, V]{readers: readers, tag: uint64(shard) << seqBits, released: 1}
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
//simdtree:kernels ^Versioned\.(Get|pin|hold)$|^readerSlots\.claim$|^readerSlotHint$

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

// claim returns a free slot that now announces word, probing from slot
// hint (masked to the array). It sets the slot's claimed bit before the
// CAS that announces, so a writer that sees the announcement also sees
// the claim; once the bit is set, that costs one plain load.
//
//simdtree:hotpath
func (r *readerSlots) claim(hint uint32, word uint64) *epochSlot {
	i := hint & r.mask
	for spins := 0; ; spins++ {
		s := &r.slots[i]
		if s.epoch.Load() == 0 {
			if bit := uint64(1) << (i & 63); r.claimed.Load()&bit == 0 {
				r.claimed.Or(bit)
			}
			if s.epoch.CompareAndSwap(0, word) {
				return s
			}
		}
		i = (i + 1) & r.mask
		if spins&63 == 63 {
			// All slots transiently busy — yield rather than burn the
			// core; readers release slots within one operation.
			runtime.Gosched()
		}
	}
}

// pin announces the calling reader in a free epoch slot and returns the
// version it safely pinned: the version's sequence under this
// publisher's tag, validated by hold. It claims a slot through claim,
// probing from slot hint (masked to the array). Readers pass
// readerSlotHint(). The readers that observability endpoints run (Shape,
// IndexStats) pass 0 instead: each render then reuses one slot rather
// than claiming a new one per serving goroutine or stack depth, so
// claimed_slots, and the slots every writer scan reads, stay put while a
// dashboard polls. No lock is taken and no step blocks on the writer.
//
//simdtree:hotpath
func (x *Versioned[K, V]) pin(hint uint32) (*version[K, V], *epochSlot) {
	v := x.current.Load()
	seq := v.seq.Load()
	s := x.readers.claim(hint, x.tag|seq)
	return x.hold(&s.epoch, x.tag, v, seq), s
}

// hold validates an announcement and returns the version it pins: word
// announces tag|seq, the sequence v carried when it was loaded. The
// protocol is announce-then-validate: re-load the current pointer — if
// it still names v under the same sequence, the writer's slot scan
// (which runs after the publish that supersedes v) is guaranteed to see
// the announcement, so nothing v reaches is reused while pinned. The
// sequence is checked too because version structs are recycled: a stale
// pointer may name a newer version by the time it validates. If either
// moved, re-announce the newer version and check again.
//
//simdtree:hotpath
func (x *Versioned[K, V]) hold(word *atomic.Uint64, tag uint64, v *version[K, V], seq uint64) *version[K, V] {
	for {
		cur := x.current.Load()
		if cur == v && v.seq.Load() == seq {
			if invariants.Enabled {
				invariants.Assert(seq != 0, "pinned version has zero sequence")
				invariants.Assert(word.Load() == tag|seq, "epoch slot does not announce the pinned version")
			}
			return v
		}
		v = cur
		seq = v.seq.Load()
		word.Store(tag | seq)
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
	snap := &Snapshot[K, V]{
		parts: newParts([]Index[K, V]{v.tree}, false),
		seqs:  make([]atomic.Uint64, 1),
		slot:  s,
	}
	snap.seqs[0].Store(v.seq.Load())
	return snap
}

// Version reports the sequence number of the currently published
// version. It starts at 1 for the empty index and increases by one per
// published mutation.
func (x *Versioned[K, V]) Version() uint64 { return x.current.Load().seq.Load() }

// MVCCInfo reports the health of the snapshot publication: the current
// version, how many readers are pinned right now, how many slots the
// array has and how many the claimed bits cover, how many versions'
// retired nodes a pinned reader still holds back, and the publication,
// copy and reclamation counters.
func (x *Versioned[K, V]) MVCCInfo() obs.MVCCSnapshot {
	snap := x.writerInfo()
	x.readers.report(&snap)
	return snap
}

// writerInfo is MVCCInfo without the reader-slot gauges, which a Sharded
// index reports once for all its shards.
func (x *Versioned[K, V]) writerInfo() obs.MVCCSnapshot {
	snap := x.health.Read()
	cur := x.Version()
	snap.Versions = []uint64{cur}
	if safe := x.safe(cur); safe < cur {
		snap.RetiredVersions = int(cur - safe)
	}
	x.mu.Lock()
	snap.Reclaimed, snap.CopiedNodes = x.released-1, x.copied
	x.mu.Unlock()
	return snap
}

// report sets snap's reader-slot gauges: the slot count, the slots the
// claimed bits cover and the slots announcing now — one per mid-flight
// read or held Snapshot, whatever shards it pins.
func (r *readerSlots) report(snap *obs.MVCCSnapshot) {
	snap.ReaderSlots = len(r.slots)
	for c := r.claimed.Load(); c != 0; c &= c - 1 {
		snap.ClaimedSlots += (len(r.slots) - bits.TrailingZeros64(c) + 63) / 64
	}
	for i := range r.slots {
		if r.slots[i].epoch.Load() != 0 {
			snap.ActiveSnapshots++
		}
	}
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
// below it, and passes it to the fork for its copies. It panics once the
// shard's sequence space is spent (see shardBits). Callers hold mu.
//
//simdtree:prepublish
func (x *Versioned[K, V]) fork() *version[K, V] {
	cur := x.current.Load()
	seq := cur.seq.Load()
	if seq == seqMask {
		panic("index: a shard published 2^52 versions; its sequence would spill into the announcement tag") //simdtree:allowpanic sequence-space limit, documented at shardBits
	}
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
// reader can reach: the smallest sequence a claimed slot announces for
// this shard, or cur when none does. Nodes retired under sequence r are
// reachable only from versions below r, and a reader that validated
// such a version announced it before the publish of r, so before this
// scan, which therefore sees it. Only claimed slots are read: a reader
// claims its slot before it announces. Bit b covers the slots b, b+64,
// b+128, … . Other shards' readers announce other tags and never hold
// this shard back.
func (x *Versioned[K, V]) safe(cur uint64) uint64 {
	min := cur
	shard := x.tag >> seqBits
	for c := x.readers.claimed.Load(); c != 0; c &= c - 1 {
		for i := uint32(bits.TrailingZeros64(c)); i <= x.readers.mask; i += 64 {
			if e := x.readers.slots[i&x.readers.mask].seqOf(shard); e != 0 && e < min {
				min = e
			}
		}
	}
	if invariants.Enabled {
		for i := range x.readers.slots {
			e := x.readers.slots[i].epoch.Load()
			if e == 0 {
				continue
			}
			// Load the claimed word after the announcement: a reader of
			// any shard may claim a slot mid-loop, and its bit is set
			// before its CAS, so only a later load must see it.
			claimed := x.readers.claimed.Load()
			invariants.Assertf(claimed&(1<<(i&63)) != 0, "slot %d announces a sequence without its claimed bit", i)
			invariants.Assertf(e>>seqBits < uint64(x.readers.shards) || e>>seqBits == wildcardShard,
				"slot %d announces shard %d of %d", i, e>>seqBits, x.readers.shards)
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
