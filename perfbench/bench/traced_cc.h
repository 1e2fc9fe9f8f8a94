#pragma once

#include <cstdint>
#include <vector>

#include "cc/cc.h"
#include "common/cacheline.h"

namespace perfbench {

/// Timing decorator over a ConcurrencyControl: forwards every virtual to the
/// wrapped protocol and accumulates, per worker thread, the calls and wall
/// nanoseconds spent in each operation. It is the outside-in per-layer trace
/// of the benchmark: spans are taken at the call boundaries into the engine,
/// so nothing inside the engine changes and the retry loop and MVCC routing
/// behave exactly as they do untraced.
///
/// Reads and scans are split by the path the wrapped protocol takes: a
/// descriptor served at a frozen snapshot (MVCC on, read-only, no writes)
/// counts as `kSnapshotRead` / `kSnapshotScan` (the mv layer), anything else
/// as `kRead` / `kScan` (the validated cc and core paths).
///
/// Threading: slot `tid` is written only by the worker bound to `tid`;
/// Reset and Sum must run while no worker is inside a transaction.
class TracedCc final : public rocc::ConcurrencyControl {
 public:
  enum Op : uint32_t {
    kBegin,
    kRead,
    kSnapshotRead,
    kUpdate,
    kInsert,
    kRemove,
    kScan,
    kSnapshotScan,
    kCommit,
    kAbort,
    kNumOps,
  };

  struct Totals {
    uint64_t calls[kNumOps] = {};
    uint64_t ns[kNumOps] = {};
    uint64_t commit_fails = 0;     ///< Commit calls that returned non-OK
    uint64_t commit_fail_ns = 0;   ///< their share of ns[kCommit]
    uint64_t scan_fails = 0;       ///< kScan calls that returned non-OK
    uint64_t scan_rows = 0;        ///< rows delivered by kScan calls
    uint64_t snapshot_scan_rows = 0;
    uint64_t retry_wait_ns = 0;    ///< failed attempt's end -> next Begin

    void Merge(const Totals& o);
    uint64_t CcNanos() const;      ///< sum of ns over every operation
  };

  TracedCc(rocc::ConcurrencyControl* inner, uint32_t num_threads);

  TracedCc(const TracedCc&) = delete;
  TracedCc& operator=(const TracedCc&) = delete;

  /// A new logical transaction starts on `tid`: no retry gap is pending.
  void TxnStart(uint32_t tid) { slots_[tid].fail_end = 0; }

  /// Zero every accumulator (quiescent only).
  void Reset();

  /// Sum over threads (quiescent only).
  Totals Sum() const;

  const char* Name() const override { return inner_->Name(); }
  void AttachThread(uint32_t thread_id, rocc::TxnStats* stats) override;
  void AttachLog(rocc::LogManager* log) override { inner_->AttachLog(log); }
  rocc::TxnDescriptor* Begin(uint32_t thread_id) override;
  rocc::TxnDescriptor* BeginReadOnly(uint32_t thread_id) override;
  rocc::Status Read(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t key,
                    void* out) override;
  rocc::Status Update(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t key,
                      const void* data, uint32_t size,
                      uint32_t field_offset) override;
  rocc::Status Insert(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t key,
                      const void* payload) override;
  rocc::Status Remove(rocc::TxnDescriptor* t, uint32_t table_id,
                      uint64_t key) override;
  rocc::Status Scan(rocc::TxnDescriptor* t, uint32_t table_id,
                    uint64_t start_key, uint64_t end_key, uint64_t limit,
                    rocc::ScanConsumer* consumer) override;
  rocc::Status SnapshotScan(rocc::TxnDescriptor* t, uint32_t table_id,
                            uint64_t start_key, uint64_t end_key, uint64_t limit,
                            rocc::ScanConsumer* consumer) override;
  bool EnableMvcc() override;
  rocc::mv::VersionStore* version_store() override {
    return inner_->version_store();
  }
  rocc::Status Commit(rocc::TxnDescriptor* t) override;
  void Abort(rocc::TxnDescriptor* t) override;
  rocc::AbortReason LastAbortReason(uint32_t thread_id) const override {
    return inner_->LastAbortReason(thread_id);
  }
  rocc::ContentionManager* contention() override { return inner_->contention(); }
  void SetValidationPacing(uint32_t every) override {
    inner_->SetValidationPacing(every);
  }

 private:
  struct alignas(rocc::kCacheLineSize) Slot {
    rocc::TxnStats* stats = nullptr;
    uint64_t fail_end = 0;  ///< end of the last failed attempt, 0 = none
    Totals totals;
  };

  void Record(Slot& s, Op op, uint64_t start, uint64_t end) {
    s.totals.calls[op]++;
    s.totals.ns[op] += end - start;
  }
  rocc::TxnDescriptor* TimedBegin(uint32_t thread_id, bool read_only);
  rocc::Status TimedScan(rocc::TxnDescriptor* t, bool snapshot,
                         uint32_t table_id, uint64_t start_key,
                         uint64_t end_key, uint64_t limit,
                         rocc::ScanConsumer* consumer, bool via_snapshot_call);
  uint64_t ScannedRecords(const Slot& s) const {
    return s.stats != nullptr ? s.stats->scanned_records : 0;
  }

  rocc::ConcurrencyControl* inner_;  // not owned
  bool mv_on_ = false;
  std::vector<Slot> slots_;
};

}  // namespace perfbench
