#include "storage/row.h"

#include "common/latch.h"

namespace rocc {

namespace {
constexpr int kReadSpins = 1024;
}

RowRead Row::ReadConsistent(void* out, uint64_t* version_out) const {
  // Small-cap backoff: commit sections holding the row lock are short, and
  // this loop must stay bounded to preserve kBusy semantics.
  SpinBackoff backoff(/*cap_spins=*/16, /*yield=*/false);
  for (int attempt = 0; attempt < kReadSpins; attempt++) {
    const uint64_t v1 = tid.load(std::memory_order_acquire);
    if (TidWord::IsLocked(v1)) {
      backoff.Pause();
      continue;
    }
    if (TidWord::IsAbsent(v1)) {
      // A tombstone's payload is undefined; report the stable word only.
      *version_out = v1;
      return RowRead::kAbsent;
    }
    std::memcpy(out, Data(), payload_size);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t v2 = tid.load(std::memory_order_acquire);
    if (v1 == v2) {
      *version_out = v1;
      return RowRead::kOk;
    }
  }
  return RowRead::kBusy;
}

bool Row::ReadVersion(uint64_t* version_out) const {
  const uint64_t v = tid.load(std::memory_order_acquire);
  if (TidWord::IsLocked(v)) return false;
  *version_out = v;
  return true;
}

bool Row::TryLock() {
  uint64_t v = tid.load(std::memory_order_acquire);
  if (TidWord::IsLocked(v)) return false;
  return tid.compare_exchange_strong(v, TidWord::MakeLocked(v),
                                     std::memory_order_acq_rel);
}

bool Row::LockWithSpin(int spins) {
  SpinBackoff backoff(/*cap_spins=*/64, /*yield=*/false);
  for (int i = 0; i < spins; i++) {
    if (TryLock()) return true;
    backoff.Pause();
  }
  return false;
}

void Row::Unlock() {
  const uint64_t v = tid.load(std::memory_order_relaxed);
  tid.store(v & ~TidWord::kLockBit, std::memory_order_release);
}

void Row::UnlockWithVersion(uint64_t commit_ts) {
  tid.store(commit_ts & TidWord::kVersionMask, std::memory_order_release);
}

void Row::UnlockAsDeleted(uint64_t commit_ts) {
  tid.store((commit_ts & TidWord::kVersionMask) | TidWord::kAbsentBit,
            std::memory_order_release);
}

Row* Row::Init(void* mem, uint32_t table_id, uint64_t key, uint32_t payload_size,
               bool visible, uint64_t version) {
  Row* r = static_cast<Row*>(mem);
  const uint64_t w = visible ? (version & TidWord::kVersionMask)
                             : (TidWord::kLockBit | TidWord::kAbsentBit);
  new (&r->tid) std::atomic<uint64_t>(w);
  new (&r->versions) std::atomic<mv::Version*>(nullptr);
  r->key = key;
  r->table_id = table_id;
  r->payload_size = payload_size;
  return r;
}

}  // namespace rocc
