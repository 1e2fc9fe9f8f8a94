#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc.h"
#include "core/range_manager.h"

namespace rocc {

/// Per-table logical-range configuration for ROCC.
struct RangeConfig {
  uint32_t table_id = 0;
  uint64_t key_min = 0;
  uint64_t key_max = 1ULL << 62;  ///< exclusive
  uint32_t num_ranges = 1;
  uint32_t ring_capacity = 4096;
};

/// Structural validation of a RangeConfig: rejects an empty key space
/// (key_min >= key_max) and a zero-capacity ring. num_ranges == 0 is legal
/// (treated as 1); num_ranges exceeding the key span is legal but wasteful
/// and draws a construction-time warning.
Status ValidateRangeConfig(const RangeConfig& rc);

/// Options for the ROCC protocol.
struct RoccOptions {
  /// Range layout per table; tables not listed get one all-covering range.
  std::vector<RangeConfig> tables;
  uint32_t default_ring_capacity = 4096;
  /// Fig. 12 ablation switch: when false, writers skip range registration.
  /// Scans are then NOT serializable — use only for scan-free workloads.
  bool register_writes = true;
  /// Ablation switch for the cover fast path (§II-B): when false, fully
  /// covered predicates are validated with per-write key checks like partial
  /// ones. Semantically identical (a writer registered to a range always has
  /// a key inside it); isolates the CPU saving of range-level validation.
  bool cover_fast_path = true;
};

/// Range Optimistic Concurrency Control — the paper's contribution.
///
/// Read phase: scans build one predicate {rangeID, rd_ts, start, end, cover}
/// per touched logical range before scanning it; returned records are NOT
/// copied into the readset (§III-B).
///
/// Commit protocol (Algorithm 1): lock the writeset in key order, register
/// the transaction in every written range's lock-free list, draw the commit
/// timestamp, validate the readset at record level and every predicate at
/// range level, then apply and unlock.
///
/// Predicate validation: a fully covering predicate passes iff the range
/// version is unchanged (fast path) or every registration in
/// (rd_ts, v_ts] is by this transaction / an aborted or later-serialized
/// writer. A partial predicate additionally checks the writer's keys against
/// [start, end) so unrelated writes in the same range do not abort the scan.
///
/// The range layout is static (paper §III-A): each table's key space is cut
/// into n equal ranges at construction, each with one fixed-size ring, so a
/// predicate's range id names its ring for the transaction's whole life.
class Rocc : public OccBase {
 public:
  Rocc(Database* db, uint32_t num_threads, RoccOptions options);

  const char* Name() const override { return "ROCC"; }

  Status Scan(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
              uint64_t end_key, uint64_t limit, ScanConsumer* consumer) override;

  RangeManager* range_manager(uint32_t table_id) { return managers_[table_id].get(); }

  /// Per-table range telemetry for a live observer (/vars). The layout is
  /// static and the counters are atomics, so any thread may call it.
  std::vector<RangeTelemetry> LiveRangeTelemetry(size_t top_n = 8);

 protected:
  void RegisterWrites(TxnDescriptor* t) override;
  bool ValidateScans(TxnDescriptor* t) override;

  /// MVRCC overrides this to model Deuteronomy's imprecise boundary ranges:
  /// predicates lose their [start, end) precision and cover whole ranges.
  virtual bool PreciseBoundaries() const { return true; }

  /// Validate one predicate against the window (rd_ts, v_ts] of its range's
  /// transaction list. `pace_counter` threads the validation-pacing unit
  /// count across predicates (see ConcurrencyControl::SetValidationPacing).
  bool ValidatePredicate(TxnDescriptor* t, const RangePredicate& p, uint64_t my_cts,
                         uint32_t* pace_counter);

  /// NoteAbortCause + per-range abort attribution.
  void NoteScanAbort(TxnDescriptor* t, const RangePredicate& p, AbortReason reason);

  std::vector<std::unique_ptr<RangeManager>> managers_;  // indexed by table id
  RoccOptions options_;
};

}  // namespace rocc
