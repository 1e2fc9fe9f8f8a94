#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "txn/txn.h"

namespace rocc {

/// The lock-free transaction list of a logical range (paper §III-A),
/// implemented as a circular array of descriptor pointers operated with
/// atomic instructions.
///
/// Semantics:
///  - `Register` atomically increments the range version counter and
///    publishes the descriptor in slot `seq % capacity`; the returned
///    sequence number IS the new range version, so "a transaction
///    registration increments the version by one" holds by construction.
///  - `Version` is the counter value; predicates snapshot it as rd_ts before
///    scanning and as v_ts during validation.
///  - `Get(seq)` returns the registrant for a sequence number, or nullptr if
///    that slot has been overwritten (the ring wrapped) or is mid-publish.
///    Validators treat nullptr conservatively and abort, so correctness never
///    depends on the ring being large enough — sizing it is purely a
///    performance trade-off (paper §IV, Fig. 11).
///
/// Descriptor lifetime is guaranteed by epoch-based reclamation: a validator
/// only dereferences registrations sequenced after its own transaction began
/// (see EpochManager), so EBR's transaction-granularity grace period covers
/// every access.
class TxnRing {
 public:
  explicit TxnRing(uint32_t capacity);
  ~TxnRing();

  TxnRing(const TxnRing&) = delete;
  TxnRing& operator=(const TxnRing&) = delete;

  /// Current version (= total number of registrations so far).
  uint64_t Version() const { return counter_.load(std::memory_order_acquire); }

  /// Publish `t` as a writer of this range; returns its sequence number.
  uint64_t Register(TxnDescriptor* t);

  /// Fetch the registrant of `seq`; nullptr when the slot was overwritten.
  TxnDescriptor* Get(uint64_t seq) const;

  uint32_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<TxnDescriptor*> txn{nullptr};
  };

  /// Sentinel marking a slot whose publish is in flight.
  static constexpr uint64_t kWriting = ~0ULL;

  std::atomic<uint64_t> counter_{0};
  uint32_t capacity_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace rocc
