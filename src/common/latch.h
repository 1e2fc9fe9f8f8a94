#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/cacheline.h"
#include "common/fiber.h"

namespace rocc {

/// Pause + capped exponential backoff for bounded and unbounded spin loops
/// (row-lock acquires, stable reads, B+Tree node latches).
///
/// Inside a fiber every Pause() switches fibers: a lock holder may be a fiber
/// suspended at a yield point on this same OS thread (validation pacing
/// yields while the sorted row locks are held), and spinning cannot let it
/// finish. Bounded loops keep their attempt budget either way, so a try-lock
/// still gives up and aborts; it just spends the budget letting the holder
/// run. On a real thread each Pause() burns an exponentially growing, capped
/// number of pause instructions; `yield` additionally hands the core to the
/// OS scheduler once the cap is reached, so a preempted holder can run.
class SpinBackoff {
 public:
  explicit SpinBackoff(uint32_t cap_spins = 512, bool yield = true)
      : cap_(cap_spins), yield_(yield) {}

  void Pause() {
    if (FiberScheduler::InFiber()) {
      FiberScheduler::YieldFiber();
      return;
    }
    for (uint32_t i = 0; i < spins_; i++) CpuRelax();
    if (spins_ < cap_) {
      spins_ <<= 1;
    } else if (yield_) {
      std::this_thread::yield();
    }
  }

 private:
  uint32_t spins_ = 1;
  const uint32_t cap_;
  const bool yield_;
};

/// Test-and-test-and-set spin latch.
///
/// Used only for cold paths (catalog mutation, stat merging); transaction
/// hot paths use per-record TID-word locks and lock-free rings instead.
class SpinLatch {
 public:
  void Lock() {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) CpuRelax();
    }
  }

  bool TryLock() { return !flag_.exchange(true, std::memory_order_acquire); }

  void Unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard for SpinLatch.
class SpinLatchGuard {
 public:
  explicit SpinLatchGuard(SpinLatch& latch) : latch_(latch) { latch_.Lock(); }
  ~SpinLatchGuard() { latch_.Unlock(); }
  SpinLatchGuard(const SpinLatchGuard&) = delete;
  SpinLatchGuard& operator=(const SpinLatchGuard&) = delete;

 private:
  SpinLatch& latch_;
};

/// Sense-reversing spin barrier used by the experiment runner so all worker
/// threads start the measured region together.
class SpinBarrier {
 public:
  explicit SpinBarrier(uint32_t n) : total_(n) {}

  void Wait() {
    const bool sense = sense_.load(std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_) {
      count_.store(0, std::memory_order_relaxed);
      sense_.store(!sense, std::memory_order_release);
    } else {
      while (sense_.load(std::memory_order_acquire) == sense) CpuRelax();
    }
  }

 private:
  const uint32_t total_;
  std::atomic<uint32_t> count_{0};
  std::atomic<bool> sense_{false};
};

}  // namespace rocc
