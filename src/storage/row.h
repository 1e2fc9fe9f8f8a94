#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/cacheline.h"

namespace rocc {

namespace mv {
struct Version;
}  // namespace mv

/// Silo-style TID word packed into one atomic 64-bit header per record.
///
/// Layout:
///   bit 63      lock bit (exclusive, owned by a committing writer)
///   bit 62      absent bit (row is an insert placeholder or deleted)
///   bits 0..61  version = commit timestamp of the last writer
///
/// Readers never take the lock: they use `Row::ReadConsistent` which copies
/// the payload between two version loads (the standard OCC stable-read loop).
class TidWord {
 public:
  static constexpr uint64_t kLockBit = 1ULL << 63;
  static constexpr uint64_t kAbsentBit = 1ULL << 62;
  static constexpr uint64_t kVersionMask = (1ULL << 62) - 1;

  static bool IsLocked(uint64_t w) { return (w & kLockBit) != 0; }
  static bool IsAbsent(uint64_t w) { return (w & kAbsentBit) != 0; }
  static uint64_t Version(uint64_t w) { return w & kVersionMask; }
  static uint64_t MakeLocked(uint64_t w) { return w | kLockBit; }
};

/// Outcome of a stable-read attempt (Row::ReadConsistent). kBusy is distinct
/// from kAbsent on purpose: a record that stayed locked or kept changing past
/// the spin budget is CONTENDED, not missing, and callers must not conflate
/// the two (the old boolean API made that conflation easy). Contention
/// surfaces under the kUnresolved abort reason in transactional callers.
enum class RowRead : uint8_t {
  kOk,      ///< stable live copy obtained; the word is in `version_out`
  kAbsent,  ///< stable word observed but the row is deleted / a placeholder
  kBusy,    ///< locked or changing past the spin budget; nothing copied
};

/// An in-memory record: header + primary key + inline fixed-size payload.
///
/// Rows are allocated from their table's arena and are never moved; index
/// entries and transaction read/write sets hold stable `Row*` pointers.
struct Row {
  std::atomic<uint64_t> tid;
  /// Newest-first chain of superseded versions (null when the row has never
  /// been overwritten, or multi-versioning is off). Committers link the
  /// pre-image here — under the row lock, before overwriting the payload —
  /// so snapshot readers can resolve the row at any safe timestamp
  /// (mv::VersionStore, DESIGN.md §12).
  std::atomic<mv::Version*> versions;
  uint64_t key;
  uint32_t table_id;
  uint32_t payload_size;
  // Payload bytes follow the struct inline.

  char* Data() { return reinterpret_cast<char*>(this + 1); }
  const char* Data() const { return reinterpret_cast<const char*>(this + 1); }

  /// Copy the payload into `out` only if a stable (unlocked, unchanged) live
  /// version was observed; returns that word through `version_out` (also set
  /// for kAbsent). kBusy when the record stayed locked past the spin budget.
  RowRead ReadConsistent(void* out, uint64_t* version_out) const;

  /// Read only the version without copying data; returns false when locked.
  bool ReadVersion(uint64_t* version_out) const;

  /// Try to acquire the record lock; fails if already locked.
  bool TryLock();

  /// Bounded acquire: up to `spins` TryLock attempts with backoff (inside a
  /// fiber each failed attempt yields, so a suspended holder can finish).
  /// False when the lock stayed held; callers abort with kLockFail.
  bool LockWithSpin(int spins);

  /// Release the lock without changing version (abort path).
  void Unlock();

  /// Release the lock publishing `commit_ts` as the new version and clearing
  /// the absent bit (commit path for writes and inserts).
  void UnlockWithVersion(uint64_t commit_ts);

  /// Release the lock publishing `commit_ts` and marking the row deleted.
  void UnlockAsDeleted(uint64_t commit_ts);

  bool IsAbsent() const { return TidWord::IsAbsent(tid.load(std::memory_order_acquire)); }

  /// Total allocation size for a row with the given payload.
  static size_t AllocSize(uint32_t payload_size) { return sizeof(Row) + payload_size; }

  /// Construct a row in pre-allocated memory.
  /// `visible` rows start at version `version`; invisible rows carry the
  /// absent bit and the lock (insert placeholder protocol).
  static Row* Init(void* mem, uint32_t table_id, uint64_t key, uint32_t payload_size,
                   bool visible, uint64_t version = 1);
};

}  // namespace rocc
