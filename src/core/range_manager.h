#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/txn_ring.h"
#include "harness/stats.h"
#include "txn/epoch.h"

namespace rocc {

/// Per-range contention telemetry, bumped with relaxed atomics on the commit
/// path and consumed by the RangeTuner / bench reporters. A LogicalRange is
/// shared across successive range tables, so its counters survive publishes
/// it is carried through unchanged.
struct RangeStats {
  std::atomic<uint64_t> registrations{0};   ///< writer registrations
  std::atomic<uint64_t> ring_lost{0};       ///< aborts attributed: ring wrapped
  std::atomic<uint64_t> scan_conflict{0};   ///< aborts attributed: overlap
  /// Contention heatmap: aborts attributed to this range per AbortReason
  /// (kAbortCauses order). The ring_lost/scan_conflict columns restate the
  /// two counters above; the rest come from point conflicts the protocol
  /// attributed to a range (dirty reads/lock fails inside a scan window).
  std::atomic<uint64_t> abort_by_reason[kNumAbortCauses] = {};
  /// Widest validation window (v_ts - rd_ts) a validator covered on this
  /// range's primary ring — a direct measurement of the ring capacity the
  /// workload needs. CAS-max'd on the validation path; reset by a resize so
  /// it always describes pressure against the CURRENT capacity.
  std::atomic<uint64_t> ring_high_water{0};
  /// Times this range's ring was replaced by the adaptive-capacity tuner.
  std::atomic<uint64_t> ring_resizes{0};
};

/// One logical range of the adaptive layout: a contiguous run of grid slices
/// with its own lock-free transaction ring (paper §III-A).
///
/// Ranges are immutable in their identity fields after publication and are
/// shared (shared_ptr) between successive RangeTables, so a table swap only
/// replaces the ranges the tuner touched. `prev_rings` carries the rings of
/// the range(s) this one replaced: predicates built against this range
/// snapshot them so writers that registered in a predecessor during the
/// transition window stay visible (DESIGN.md §10). One generation suffices —
/// the tuner only re-touches a range after a full epoch grace period, by
/// which time no transaction that saw the grandparent table is alive.
struct LogicalRange {
  LogicalRange(uint64_t start, uint64_t end, uint32_t first, uint32_t count,
               uint32_t ring_capacity, uint64_t ring_base = 0)
      : start_key(start),
        end_key(end),
        first_slice(first),
        num_slices(count),
        ring(std::make_shared<TxnRing>(ring_capacity, ring_base)) {}

  const uint64_t start_key;   ///< inclusive
  const uint64_t end_key;     ///< exclusive (last range extends to key_max)
  const uint32_t first_slice;
  const uint32_t num_slices;

  std::shared_ptr<TxnRing> ring;  ///< this range's transaction list
  /// Rings of the replaced range(s); fences the transition window. Rings are
  /// shared (not whole ranges) so predecessor chains collapse one generation
  /// at a time instead of pinning every ancestor.
  std::vector<std::shared_ptr<TxnRing>> prev_rings;
  uint64_t created_epoch = 0;  ///< publish epoch; tuner grace gate

  RangeStats stats;

  // Tuner-private delta baselines (guarded by the tuner's serialization).
  uint64_t seen_registrations = 0;
  uint64_t seen_ring_lost = 0;
  uint64_t seen_scan_conflict = 0;
  // Tuner-private merge-evaluation window: per-pass deltas accumulate here so
  // coldness is judged over a fixed amount of observed traffic, not over one
  // (possibly back-to-back) pass interval. Reset at each merge evaluation.
  uint64_t window_registrations = 0;
  uint64_t window_aborts = 0;
};

/// Immutable snapshot of the slice -> logical-range mapping, published via a
/// single atomic pointer and reclaimed through epoch-based reclamation.
/// `ranges` is ascending by start_key; a range's id is its index in THIS
/// table (ids are positional and may change across publishes).
struct RangeTable {
  uint64_t version = 0;
  std::vector<std::shared_ptr<LogicalRange>> ranges;
  std::vector<uint32_t> slice_to_range;  ///< one entry per grid slice

  uint32_t num_ranges() const { return static_cast<uint32_t>(ranges.size()); }
  LogicalRange* range(uint32_t id) const { return ranges[id].get(); }
};

/// Per-range telemetry snapshot for reporting (bench --json, report.cc).
struct RangeTelemetry {
  struct Row {
    uint32_t range_id;
    uint64_t start_key;
    uint64_t end_key;
    uint32_t num_slices;
    uint64_t ring_version;
    uint32_t prev_rings;
    uint64_t registrations;
    uint64_t ring_lost;
    uint64_t scan_conflict;
    uint32_t ring_capacity;
    uint64_t ring_high_water;
    uint64_t ring_resizes;
    /// range_id × AbortReason heatmap row (kAbortCauses order).
    uint64_t abort_by_reason[kNumAbortCauses];
  };
  uint64_t table_version = 0;
  uint32_t num_ranges = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t resizes = 0;
  uint64_t total_registrations = 0;
  std::vector<Row> rows;  ///< top-N by registrations, descending
};

/// Two-level adaptive partitioning of one table's key space (paper §III-A,
/// Fig. 3, extended per DESIGN.md §10).
///
/// Level 1 is a fixed fine-grained slice grid: each of the `num_ranges`
/// initial equal-width ranges is subdivided into `slices_per_range` integer
/// slices, so the key -> slice mapping is pure arithmetic, frozen at
/// construction, and the initial range boundaries are bit-exact with the
/// static layout. Level 2 is the epoch/RCU-published RangeTable mapping
/// slices to logical ranges: `RangeOf` is an acquire load plus two divisions
/// and an array index — lock-free, no latches, regardless of tuner activity.
///
/// Structural changes (Split/Merge) build a new immutable table, publish it
/// with a release store, and retire the old one; retired tables are freed
/// once EpochManager::MinActive() passes their retire epoch, which keeps
/// every ring/range pointer held by in-flight predicates valid. Split/Merge
/// and ReclaimRetired must be externally serialized (the RangeTuner holds a
/// mutex); all read-side accessors are safe concurrently.
class RangeManager {
 public:
  /// \param key_min        inclusive lower bound of the key space
  /// \param key_max        exclusive upper bound of the key space
  /// \param num_ranges     number of equal initial logical ranges
  /// \param ring_capacity  slots in each range's circular transaction list
  /// \param slices_per_range  grid refinement under each initial range
  ///                          (1 = static layout, no splitting possible)
  RangeManager(uint64_t key_min, uint64_t key_max, uint32_t num_ranges,
               uint32_t ring_capacity, uint32_t slices_per_range = 1);
  ~RangeManager();

  RangeManager(const RangeManager&) = delete;
  RangeManager& operator=(const RangeManager&) = delete;

  /// Current table; acquire load. Pointers stay valid for the duration of
  /// the caller's transaction (epoch protection).
  const RangeTable* Snapshot() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Grid slice containing `key`; keys outside [key_min, key_max) clamp to
  /// the first/last slice.
  uint32_t SliceOf(uint64_t key) const {
    if (key <= key_min_) return 0;
    uint64_t r = (key - key_min_) / range_size_;
    if (r >= init_num_ranges_) r = init_num_ranges_ - 1;
    uint64_t o = (key - key_min_ - r * range_size_) / slice_width_;
    if (o >= slices_per_range_) o = slices_per_range_ - 1;
    return static_cast<uint32_t>(r * slices_per_range_ + o);
  }

  /// Exclusive upper key of slice `s - 1` / inclusive lower key of slice `s`
  /// (the grid boundary function); SliceBound(num_slices) == key_max.
  uint64_t SliceBound(uint32_t s) const {
    if (s >= num_slices_) return key_max_;
    const uint64_t r = s / slices_per_range_;
    const uint64_t j = s % slices_per_range_;
    uint64_t off = j * slice_width_;
    if (off > range_size_) off = range_size_;  // empty tail slices collapse
    return key_min_ + r * range_size_ + off;
  }

  /// Logical range id containing `key` in the CURRENT table. Keys outside
  /// [key_min, key_max) are clamped to the first/last range.
  uint32_t RangeOf(uint64_t key) const {
    return Snapshot()->slice_to_range[SliceOf(key)];
  }

  uint64_t RangeStart(uint32_t id) const {
    return Snapshot()->range(id)->start_key;
  }

  /// Exclusive end of range `id`; the last range extends to key_max.
  uint64_t RangeEnd(uint32_t id) const { return Snapshot()->range(id)->end_key; }

  TxnRing& ring(uint32_t id) { return *Snapshot()->range(id)->ring; }
  const TxnRing& ring(uint32_t id) const { return *Snapshot()->range(id)->ring; }

  uint32_t num_ranges() const { return Snapshot()->num_ranges(); }
  uint64_t key_min() const { return key_min_; }
  uint64_t key_max() const { return key_max_; }
  uint64_t range_size() const { return range_size_; }
  uint32_t init_num_ranges() const { return init_num_ranges_; }
  uint32_t slices_per_range() const { return slices_per_range_; }
  uint32_t num_slices() const { return num_slices_; }
  uint32_t ring_capacity() const { return ring_capacity_; }
  uint64_t table_version() const { return Snapshot()->version; }
  uint64_t splits() const { return splits_; }
  uint64_t merges() const { return merges_; }
  uint64_t resizes() const { return resizes_; }

  /// Split range `range_id` of the current table into up to `children`
  /// slice-balanced children with fresh rings, publishing a new table at
  /// `publish_epoch`. Returns false when the range has too few non-empty
  /// slices. Caller must hold the tuner serialization and have verified the
  /// epoch grace (MinActive > range->created_epoch).
  bool Split(uint32_t range_id, uint32_t children, uint64_t publish_epoch);

  /// Merge `count` adjacent ranges starting at `first_range_id` into one
  /// range with a fresh ring whose prev_rings fence all merged rings.
  /// `count` is capped by RangePredicate::kMaxPrevRings. Same caller
  /// obligations as Split.
  bool Merge(uint32_t first_range_id, uint32_t count, uint64_t publish_epoch);

  /// Replace range `range_id`'s ring with one of `new_capacity` slots,
  /// publishing a new table at `publish_epoch`. The replacement ring is
  /// seeded at the retired ring's current version (sequence continuity) and
  /// fences it via prev_rings, so the transition window is validated by
  /// exactly the Split machinery; the retired ring stays readable until
  /// MinActive passes the publish epoch. Same caller obligations as Split.
  bool Resize(uint32_t range_id, uint32_t new_capacity, uint64_t publish_epoch);

  /// Free retired tables whose retire epoch precedes `min_active`.
  /// Tuner-serialized.
  void ReclaimRetired(uint64_t min_active);

  size_t retired_tables() const { return retired_.size(); }

  /// Snapshot per-range counters (top `top_n` rows by registrations).
  RangeTelemetry Telemetry(size_t top_n = 16) const;

 private:
  void Publish(RangeTable* next, uint64_t publish_epoch);

  uint64_t key_min_;
  uint64_t key_max_;
  uint32_t init_num_ranges_;
  uint64_t range_size_;   ///< initial equal-width range size (grid period)
  uint32_t slices_per_range_;
  uint64_t slice_width_;  ///< ceil(range_size / slices_per_range)
  uint32_t num_slices_;
  uint32_t ring_capacity_;

  std::atomic<RangeTable*> current_;
  RetireList<RangeTable> retired_;  ///< tuner-serialized
  uint64_t splits_ = 0;
  uint64_t merges_ = 0;
  uint64_t resizes_ = 0;
};

}  // namespace rocc
