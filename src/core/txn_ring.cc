#include "core/txn_ring.h"

#include "common/cacheline.h"

namespace rocc {

TxnRing::TxnRing(uint32_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

TxnRing::~TxnRing() = default;

uint64_t TxnRing::Register(TxnDescriptor* t) {
  const uint64_t seq = counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
  Slot& slot = slots_[seq % capacity_];

  // Claim the slot with a CAS on the sequence tag so two registrants a whole
  // lap apart can never interleave their (txn, seq) stores.
  uint64_t cur = slot.seq.load(std::memory_order_acquire);
  while (true) {
    if (cur == kWriting) {
      CpuRelax();
      cur = slot.seq.load(std::memory_order_acquire);
      continue;
    }
    if (cur > seq) {
      // A registrant from a later lap already owns this slot; our entry is
      // obsolete before it was ever published. Validators that need `seq`
      // will see the mismatch and abort conservatively.
      return seq;
    }
    if (slot.seq.compare_exchange_weak(cur, kWriting, std::memory_order_acq_rel)) {
      break;
    }
  }
  slot.txn.store(t, std::memory_order_release);
  slot.seq.store(seq, std::memory_order_release);
  return seq;
}

TxnDescriptor* TxnRing::Get(uint64_t seq) const {
  const Slot& slot = slots_[seq % capacity_];
  // The registrant increments the counter before publishing the slot; give a
  // mid-publish writer a short grace period before giving up.
  for (int spin = 0; spin < 64; spin++) {
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == seq) {
      TxnDescriptor* t = slot.txn.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_acquire) == seq) return t;
      return nullptr;  // overwritten mid-read
    }
    if (s1 > seq && s1 != kWriting) return nullptr;  // lapped: info lost
    CpuRelax();  // older tag or mid-publish: the writer is about to land
  }
  return nullptr;
}

}  // namespace rocc
