#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/row.h"

namespace rocc {

/// Transaction life-cycle states. `kValidating` and `kCommitted` descriptors
/// may be examined concurrently by validators of other transactions.
enum class TxnState : uint8_t {
  kInactive = 0,
  kActive,      ///< read phase
  kValidating,  ///< locks held, registered, commit ts may not be assigned yet
  kCommitted,
  kAborted,
};

/// One record-level read tracked for OCC readset validation.
struct ReadEntry {
  Row* row;
  uint64_t observed_tid;  ///< full TID word observed at read time
};

/// One deferred write (update / insert / delete).
struct WriteEntry {
  enum class Kind : uint8_t { kUpdate, kInsert, kDelete };

  Row* row;           ///< resolved row; for inserts, the placeholder (set at lock time)
  uint64_t key;
  uint32_t table_id;
  Kind kind;
  bool locked;        ///< this transaction holds the record lock
  uint32_t data_offset;  ///< offset of the after-image in write_buf
  uint32_t data_size;    ///< after-image length
  uint32_t field_offset; ///< byte offset within the row payload to apply at
  int32_t prev;          ///< previous write_set entry for the same (table, key); -1 = none
};

/// One record captured by an LRV scan (pointer + observed version).
struct ScanRecord {
  Row* row;
  uint64_t observed_tid;
};

/// One key-range scan operation, tracked for LRV re-scan validation.
struct ScanEntry {
  uint32_t table_id;
  uint64_t start_key;
  uint64_t end_key;   ///< exclusive; last returned key + 1 (set after the scan)
  uint64_t limit;     ///< max records the scan requested (0 = unbounded)
  uint32_t first_record;  ///< index into scan_records
  uint32_t num_records;
};

/// Range predicate exactly as in paper §III-B:
/// {rangeID, rd_ts, start_key, end_key, cover}.
///
/// GWV reuses the same structure with range_id 0 against its single global
/// list; MVRCC drops the key precision (cover forced true).
struct RangePredicate {
  uint32_t table_id;
  uint32_t range_id;
  uint64_t rd_ts;      ///< range version observed before scanning
  uint64_t start_key;  ///< precise scanned scope, inclusive
  uint64_t end_key;    ///< exclusive
  bool cover;          ///< predicate fully covers the logical range
};

/// A key this transaction has a live pending insert for; kept sorted by
/// (table_id, key) so scans can slice their window in O(log W).
struct PendingInsert {
  uint64_t key;
  uint32_t table_id;
};

/// Frozen summary of one table's share of a committed-or-committing write
/// set: key interval plus a slice of `frozen_write_keys` holding the table's
/// written keys in ascending order. Built once the write set is frozen
/// (after the lock phase, before registration) so concurrent validators can
/// interval-reject and binary-search instead of walking the write set.
struct WriteFingerprint {
  uint32_t table_id;
  uint64_t key_min;  ///< inclusive
  uint64_t key_max;  ///< inclusive
  uint32_t first;    ///< offset into frozen_write_keys
  uint32_t count;
};

/// Open-addressed hash map from a 128-bit key to a write_set index, cleared
/// in O(1) by bumping a generation tag. Backs the transaction-local write
/// indexes so point lookups stay O(1) for bulk write sets of thousands of
/// entries. No deletion support: per-transaction indexes only ever append.
class TxnIndexMap {
 public:
  /// Forget every entry. O(1) amortized: bumps the generation; slots are
  /// physically wiped only when the 32-bit generation wraps.
  void Clear() {
    count_ = 0;
    if (++gen_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }

  /// Value stored for (k1, k2), or -1 when absent.
  int32_t Find(uint64_t k1, uint64_t k2) const {
    if (slots_.empty()) return -1;
    for (uint32_t i = Hash(k1, k2) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return -1;
      if (s.k1 == k1 && s.k2 == k2) return s.value;
    }
  }

  /// Insert or overwrite; returns the previous value (-1 when absent).
  int32_t Put(uint64_t k1, uint64_t k2, int32_t value) {
    if ((count_ + 1) * 4 >= slots_.size() * 3) Grow();
    for (uint32_t i = Hash(k1, k2) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = {k1, k2, value, gen_};
        count_++;
        return -1;
      }
      if (s.k1 == k1 && s.k2 == k2) {
        const int32_t old = s.value;
        s.value = value;
        return old;
      }
    }
  }

  /// Insert only when absent; returns the existing value or -1 if inserted.
  int32_t PutIfAbsent(uint64_t k1, uint64_t k2, int32_t value) {
    if ((count_ + 1) * 4 >= slots_.size() * 3) Grow();
    for (uint32_t i = Hash(k1, k2) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = {k1, k2, value, gen_};
        count_++;
        return -1;
      }
      if (s.k1 == k1 && s.k2 == k2) return s.value;
    }
  }

 private:
  struct Slot {
    uint64_t k1 = 0;
    uint64_t k2 = 0;
    int32_t value = 0;
    uint32_t gen = 0;  ///< occupied iff equal to the owner's current gen
  };

  static uint32_t Hash(uint64_t k1, uint64_t k2) {
    // SplitMix64 finalizer over the mixed pair.
    uint64_t x = k1 ^ (k2 * 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<uint32_t>(x);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = static_cast<uint32_t>(cap - 1);
    count_ = 0;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      for (uint32_t i = Hash(s.k1, s.k2) & mask_;; i = (i + 1) & mask_) {
        if (slots_[i].gen != gen_) {
          slots_[i] = s;
          count_++;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  uint32_t mask_ = 0;
  uint32_t count_ = 0;
  uint32_t gen_ = 1;
};

/// Transaction descriptor shared between the owning worker and concurrent
/// validators.
///
/// Ownership discipline:
///  - During the read phase only the owner mutates the sets.
///  - Registration into a (range) list is a release operation; validators
///    reading the slot acquire it, so `write_set` contents and the frozen
///    fingerprints — both frozen before registration — are safely visible.
///  - `state` and `commit_ts` are the only fields mutated after registration
///    and are atomics.
///  - Descriptors are recycled through epoch-based reclamation so a validator
///    never observes a reused descriptor (see EpochManager).
///
/// Write-set bookkeeping keeps every per-operation lookup O(1):
///  - `write_index` maps (table, key) to the NEWEST write_set entry for the
///    key; entries for one key are chained through WriteEntry::prev, newest
///    to oldest, so the chronological overlay (partial field images composing
///    left to right) replays along the chain instead of the whole set.
///  - `row_index` maps a resolved Row* to the OLDEST entry holding it
///    (the old FindWriteByRow first-match contract).
///  - `pending_inserts` mirrors the keys whose newest chain state is a live
///    insert, sorted by (table, key), so a scan slices its window in
///    O(log W) instead of rebuilding and sorting per call.
///
/// In-transaction key life cycle (pinned by the overlay model test):
/// a delete is terminal for a key — later Update/Remove return NotFound and
/// Insert returns KeyExists; removing one's own pending insert cancels it.
///
/// Small write sets (point transactions) never touch the hash indexes: below
/// kIndexActivationThreshold entries, lookups fall back to a linear scan of
/// `write_set`, which fits in a cache line or two and beats hashing. The
/// indexes are populated lazily by the append that crosses the threshold.
class TxnDescriptor {
 public:
  /// Write-set size at which the hash indexes take over from linear scans.
  static constexpr size_t kIndexActivationThreshold = 16;
  uint64_t txn_id = 0;
  uint32_t thread_id = 0;
  uint64_t start_ts = 0;
  uint64_t begin_nanos = 0;  ///< wall-clock at Begin, for phase accounting
  bool is_scan_txn = false;  ///< workload marks bulk/scan transactions
  bool snapshot_reads = false;  ///< route read-only scans through SnapshotScan
  uint64_t snapshot_ts = 0;  ///< acquired snapshot (0 = none yet); freezes the
                             ///< txn read-only once set
  std::atomic<TxnState> state{TxnState::kInactive};
  std::atomic<uint64_t> commit_ts{0};  ///< 0 = not yet assigned

  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;
  std::vector<ScanRecord> scan_records;
  std::vector<ScanEntry> scan_set;
  std::vector<RangePredicate> predicates;
  std::vector<char> write_buf;  ///< after-images referenced by write_set

  /// Ranges this transaction registered to, as sorted (table_id << 32 |
  /// range_id) tags, for once-per-range dedup in O(log R).
  std::vector<uint64_t> registered_ranges;

  /// Live pending inserts, sorted by (table_id, key).
  std::vector<PendingInsert> pending_inserts;

  /// Frozen validation fingerprints (one per written table) and the sorted
  /// key slices they reference; built by FreezeWriteFingerprints.
  std::vector<WriteFingerprint> fingerprints;
  std::vector<uint64_t> frozen_write_keys;

  /// 2PL-only: row -> read_set index of the lock-tracking entry.
  TxnIndexMap lock_index;

  /// Prepare the descriptor for a new transaction.
  void Reset(uint64_t id, uint32_t thread, uint64_t start);

  /// Append an after-image and return its offset in write_buf.
  uint32_t AppendImage(const void* data, uint32_t size);

  /// Append a write entry, maintaining the write index, the per-key chain,
  /// the row index, and the pending-insert view. `we.prev` is set here.
  void AppendWrite(WriteEntry we);

  /// Bind the resolved row of entry `idx` (insert placeholders get theirs at
  /// lock time) into the row index.
  void BindRow(int32_t idx, Row* row);

  /// NEWEST write entry for (table, key); -1 when the key is untouched.
  int FindWrite(uint32_t table_id, uint64_t key) const {
    if (!index_active_) {
      for (int i = static_cast<int>(write_set.size()) - 1; i >= 0; i--) {
        const WriteEntry& we = write_set[i];
        if (we.key == key && we.table_id == table_id) return i;
      }
      return -1;
    }
    return write_index_.Find(key, table_id);
  }

  /// OLDEST write entry holding this row pointer; -1 when absent.
  int FindWriteByRow(const Row* row) const {
    if (!index_active_) {
      for (size_t i = 0; i < write_set.size(); i++) {
        if (write_set[i].row == row) return static_cast<int>(i);
      }
      return -1;
    }
    return row_index_.Find(reinterpret_cast<uintptr_t>(row), 0);
  }

  /// NEWEST write entry holding this row pointer; -1 when absent.
  int FindLatestWriteByRow(const Row* row) const {
    const int oldest = FindWriteByRow(row);
    if (oldest < 0) return oldest;
    return FindWrite(write_set[oldest].table_id, write_set[oldest].key);
  }

  /// Apply the key's pending images chronologically onto `out` (a row-sized
  /// buffer), starting from the newest full image (an insert) or the chain
  /// head. `idx` must not be a delete entry.
  void ReplayChain(int32_t idx, char* out) const {
    const WriteEntry& we = write_set[idx];
    if (we.kind != WriteEntry::Kind::kInsert && we.prev >= 0) {
      ReplayChain(we.prev, out);
    }
    std::memcpy(out + we.field_offset, write_buf.data() + we.data_offset,
                we.data_size);
  }

  /// Append the keys with a live pending insert in `table_id` × [lo, hi),
  /// ascending, to `out` (which is not cleared).
  void PendingInsertKeysInto(uint32_t table_id, uint64_t lo, uint64_t hi,
                             std::vector<uint64_t>* out) const;

  /// Build the per-table validation fingerprints from the (now frozen) write
  /// set. Must run after the last AppendWrite and before the descriptor is
  /// registered: registration is the release point that makes the summaries
  /// visible to concurrent validators, and they are never touched afterwards.
  void FreezeWriteFingerprints();

  /// Validator-side: does the frozen write set touch any key of `table_id`
  /// in [lo, hi)? Interval reject + binary search, O(log W).
  bool WritesIntersect(uint32_t table_id, uint64_t lo, uint64_t hi) const;

  const char* ImageAt(uint32_t offset) const { return write_buf.data() + offset; }

  bool HasWrites() const { return !write_set.empty(); }

 private:
  /// Populate both indexes from the existing write set; called by the append
  /// that crosses kIndexActivationThreshold. Ascending replay leaves the
  /// write index at the newest entry per key and the row index at the oldest
  /// entry per row, matching the incremental-maintenance invariants.
  void ActivateIndexes();

  bool index_active_ = false;
  TxnIndexMap write_index_;  ///< (key, table) -> newest write_set index
  TxnIndexMap row_index_;    ///< row ptr -> oldest write_set index
};

}  // namespace rocc
