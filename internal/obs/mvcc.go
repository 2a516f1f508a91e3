package obs

import (
	"sync/atomic"
	"time"
)

// This file is the observability surface of the MVCC snapshot layer
// (internal/index.Versioned): the lock-free version-publication counter
// and writer-publish latency histogram, and the snapshot type that also
// carries the writer's node-copy and reclamation counts. The index layer owns the live state (current
// version numbers, pinned readers, the versions whose retired nodes a
// reader holds back) and reports it at read time through MVCCSnapshot,
// so the hot paths carry no extra gauges — point-in-time quantities are
// computed from the epoch slots when someone actually looks.

// MVCC accumulates the publication-side counters of one copy-on-write
// snapshot publisher. The zero value is ready to use; all methods are
// safe for concurrent use, though in practice only the single writer of
// a Versioned index touches them.
type MVCC struct {
	published atomic.Uint64
	latency   Histogram
}

// RecordPublish counts one published version whose publish was not
// timed.
func (m *MVCC) RecordPublish() { m.published.Add(1) }

// RecordTimedPublish counts one published version and the time the
// writer spent building and publishing it, as the latency of each of the
// stride publishes the timed one samples.
func (m *MVCC) RecordTimedPublish(d time.Duration, stride uint64) {
	m.published.Add(1)
	m.latency.ObserveN(d, stride)
}

// Read returns the counter and latency state. The index layer fills in
// the fields it owns: the point-in-time ones (Versions,
// ActiveSnapshots, RetiredVersions, ClaimedSlots, ReaderSlots) and the
// writer's own counts (Reclaimed, CopiedNodes).
func (m *MVCC) Read() MVCCSnapshot {
	return MVCCSnapshot{
		Published:      m.published.Load(),
		PublishLatency: m.latency.Read(),
	}
}

// MVCCSnapshot is a point-in-time view of one snapshot publisher — or,
// after Merge, of a sharded group of them.
type MVCCSnapshot struct {
	// Versions holds the currently published version sequence number of
	// every publisher (one entry per shard; a single entry unsharded).
	Versions []uint64 `json:"versions"`
	// ActiveSnapshots is the number of currently pinned readers: epoch
	// slots holding a version open, whether a mid-flight Get or a
	// long-lived Snapshot handle (one slot however many shards it pins).
	ActiveSnapshots int `json:"active_snapshots"`
	// RetiredVersions counts the versions whose retired nodes are still
	// waiting for a reader: those above the oldest sequence a reader
	// pins. It is 0 while no reader pins an older version than the
	// current one.
	RetiredVersions int `json:"retired_versions"`
	// ClaimedSlots counts the epoch slots some reader has ever announced
	// in — the slots a writer's scan reads. It stays 0 while no reader
	// has pinned a version.
	ClaimedSlots int `json:"claimed_slots"`
	// ReaderSlots is the size of the epoch-slot array readers announce
	// in: one array per index, shared by all its shards.
	ReaderSlots int `json:"reader_slots"`
	// Published counts versions published since construction.
	Published uint64 `json:"published_versions_total"`
	// Reclaimed counts versions whose replaced nodes the writers released
	// for reuse, once no reader could reach them.
	Reclaimed uint64 `json:"reclaimed_versions_total"`
	// CopiedNodes counts the nodes writes copied before changing them
	// (path copying): about one per tree level per write.
	CopiedNodes uint64 `json:"copied_nodes_total"`
	// Cloned counted full tree copies of the earlier two-tree writer.
	// Path copying never copies a whole tree, so it always reads 0; it
	// stays for readers of its JSON name.
	Cloned uint64 `json:"cloned_versions_total"`
	// PublishLatency is the writer-side publish latency histogram.
	PublishLatency HistogramSnapshot `json:"publish_latency"`
}

// Merge accumulates o into s: versions append, the writers' gauges and
// counters sum, histograms add bucket-wise — the aggregation of a
// sharded index's shards. The reader-slot gauges (ActiveSnapshots,
// ClaimedSlots, ReaderSlots) describe the one slot array the shards
// share and are left to its owner to set, not summed.
func (s *MVCCSnapshot) Merge(o MVCCSnapshot) {
	s.Versions = append(s.Versions, o.Versions...)
	s.RetiredVersions += o.RetiredVersions
	s.Published += o.Published
	s.Reclaimed += o.Reclaimed
	s.CopiedNodes += o.CopiedNodes
	s.Cloned += o.Cloned
	s.PublishLatency.Merge(o.PublishLatency)
}

// CurrentVersion returns the highest published sequence across the
// merged publishers, 0 when none.
func (s MVCCSnapshot) CurrentVersion() uint64 {
	var max uint64
	for _, v := range s.Versions {
		if v > max {
			max = v
		}
	}
	return max
}

// Metrics returns the snapshot as table rows named mvcc_*: the
// active-snapshot, retired-version, claimed-slot and reader-slot gauges,
// the current version, the publication, reclamation and copy counters
// and the publish latency histogram (sampled: see RecordTimedPublish).
// The current version, published and reclaimed counts, copied nodes,
// active snapshots, claimed slots and reader slots carry the /stats keys
// version, versions_published, versions_reclaimed, copied_nodes,
// active_snapshots, claimed_slots and reader_slots.
func (s MVCCSnapshot) Metrics() []Metric {
	return []Metric{
		{Name: "mvcc_active_snapshots", Help: "pinned reader epochs: mid-flight reads and held snapshots",
			Kind: KindGauge, Value: float64(s.ActiveSnapshots), Stat: "active_snapshots"},
		{Name: "mvcc_retired_versions", Help: "versions whose retired nodes are still waiting for a reader",
			Kind: KindGauge, Value: float64(s.RetiredVersions)},
		{Name: "mvcc_claimed_slots", Help: "epoch slots ever claimed by a reader: the slots a writer's scan reads",
			Kind: KindGauge, Value: float64(s.ClaimedSlots), Stat: "claimed_slots"},
		{Name: "mvcc_reader_slots", Help: "epoch slots in the index's one reader-slot array",
			Kind: KindGauge, Value: float64(s.ReaderSlots), Stat: "reader_slots"},
		{Name: "mvcc_current_version", Help: "highest published version sequence",
			Kind: KindGauge, Value: float64(s.CurrentVersion()), Stat: "version"},
		{Name: "mvcc_published_versions_total", Help: "tree versions published by writers",
			Kind: KindCounter, Value: float64(s.Published), Stat: "versions_published"},
		{Name: "mvcc_reclaimed_versions_total", Help: "versions whose replaced nodes writers released for reuse",
			Kind: KindCounter, Value: float64(s.Reclaimed), Stat: "versions_reclaimed"},
		{Name: "mvcc_copied_nodes_total", Help: "nodes writes copied before changing them (path copying)",
			Kind: KindCounter, Value: float64(s.CopiedNodes), Stat: "copied_nodes"},
		{Name: "mvcc_cloned_versions_total", Help: "full tree copies: always 0 since writes copy only the nodes they touch",
			Kind: KindCounter, Value: float64(s.Cloned)},
		{Name: "mvcc_publish_latency_seconds", Help: "writer-side version build-and-publish latency",
			Kind: KindHistogram, Hist: &s.PublishLatency},
	}
}
