#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/txn_ring.h"
#include "harness/stats.h"

namespace rocc {

/// Per-range contention telemetry, bumped with relaxed atomics on the commit
/// path and read by Telemetry() for the live /vars heatmap.
struct RangeStats {
  std::atomic<uint64_t> registrations{0};   ///< writer registrations
  std::atomic<uint64_t> ring_lost{0};       ///< aborts attributed: ring wrapped
  std::atomic<uint64_t> scan_conflict{0};   ///< aborts attributed: overlap
  /// Contention heatmap: aborts attributed to this range per AbortReason
  /// (kAbortCauses order). Only scan validation attributes aborts to a
  /// range, so just the ring_lost/scan_conflict columns, which restate the
  /// two counters above, are ever nonzero.
  std::atomic<uint64_t> abort_by_reason[kNumAbortCauses] = {};
};

/// Per-range telemetry snapshot for reporting (/vars).
struct RangeTelemetry {
  struct Row {
    uint32_t range_id;
    uint64_t start_key;
    uint64_t end_key;
    uint64_t registrations;
    uint64_t ring_lost;
    uint64_t scan_conflict;
    uint32_t ring_capacity;
    /// range_id × AbortReason heatmap row (kAbortCauses order).
    uint64_t abort_by_reason[kNumAbortCauses];
  };
  uint32_t num_ranges = 0;
  uint64_t total_registrations = 0;
  std::vector<Row> rows;  ///< top-N by registrations, descending
};

/// Partitions one table's key space into `num_ranges` equal, continuous,
/// disjoint logical ranges [start_key, end_key), each with its own
/// fixed-size lock-free transaction ring and contention counters (paper
/// §III-A, Fig. 3). The layout is fixed at construction, so every accessor
/// is plain arithmetic and safe from any thread.
class RangeManager {
 public:
  /// \param key_min        inclusive lower bound of the key space
  /// \param key_max        exclusive upper bound of the key space
  /// \param num_ranges     number of equal logical ranges (0 is treated as 1)
  /// \param ring_capacity  slots in each range's circular transaction list
  RangeManager(uint64_t key_min, uint64_t key_max, uint32_t num_ranges,
               uint32_t ring_capacity);

  RangeManager(const RangeManager&) = delete;
  RangeManager& operator=(const RangeManager&) = delete;

  /// Logical range id containing `key`. Keys outside [key_min, key_max) are
  /// clamped to the first/last range.
  uint32_t RangeOf(uint64_t key) const {
    if (key <= key_min_) return 0;
    const uint64_t r = (key - key_min_) / range_size_;
    return r >= num_ranges_ ? num_ranges_ - 1 : static_cast<uint32_t>(r);
  }

  uint64_t RangeStart(uint32_t id) const { return key_min_ + id * range_size_; }

  /// Exclusive end of range `id`; the last range extends to key_max.
  uint64_t RangeEnd(uint32_t id) const {
    return id + 1 == num_ranges_ ? key_max_ : key_min_ + (id + 1) * range_size_;
  }

  TxnRing& ring(uint32_t id) { return ranges_[id]->ring; }
  const TxnRing& ring(uint32_t id) const { return ranges_[id]->ring; }

  RangeStats& stats(uint32_t id) { return ranges_[id]->stats; }

  uint32_t num_ranges() const { return num_ranges_; }
  uint64_t key_min() const { return key_min_; }
  uint64_t key_max() const { return key_max_; }
  uint64_t range_size() const { return range_size_; }

  /// Snapshot per-range counters (top `top_n` rows by registrations).
  RangeTelemetry Telemetry(size_t top_n = 16) const;

 private:
  struct Range {
    explicit Range(uint32_t ring_capacity) : ring(ring_capacity) {}
    TxnRing ring;
    RangeStats stats;
  };

  uint64_t key_min_;
  uint64_t key_max_;
  uint32_t num_ranges_;
  uint64_t range_size_;
  std::vector<std::unique_ptr<Range>> ranges_;
};

}  // namespace rocc
