// Tests for the one lock protocol: the B+Tree's CAS version latch (word
// layout and version-bump protocol, mutual exclusion and optimistic-read
// validation under real threads) and the row TID-word lock (bounded
// acquire, lost-update stress, and fiber-yielding waits that let a
// suspended holder finish).
//
// This binary runs under TSan in CI: all cross-thread payloads are
// std::atomic, so the only happens-before edges are the ones the lock
// protocol itself establishes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/fiber.h"
#include "index/btree.h"
#include "storage/row.h"

namespace rocc {
namespace {

using btree_detail::VersionLatch;

// --------------------------------------------------------------------------
// Word layout and the version-bump protocol
// --------------------------------------------------------------------------

TEST(VersionLatch, UpgradeBumpsVersionByOneStep) {
  VersionLatch latch;
  const uint64_t v0 = latch.ReadLockOrRestart();
  EXPECT_EQ(v0, 0u);
  EXPECT_TRUE(latch.CheckOrRestart(v0));

  ASSERT_TRUE(latch.UpgradeToWriteLockOrRestart(v0));
  EXPECT_TRUE(latch.IsLocked());
  EXPECT_FALSE(latch.CheckOrRestart(v0));  // locked words never validate
  latch.WriteUnlock();

  const uint64_t v1 = latch.ReadLockOrRestart();
  EXPECT_EQ(v1, v0 + 2);
  EXPECT_FALSE(latch.CheckOrRestart(v0));
  EXPECT_TRUE(latch.CheckOrRestart(v1));
}

TEST(VersionLatch, StaleUpgradeFailsWithoutBumping) {
  VersionLatch latch;
  const uint64_t stale = latch.ReadLockOrRestart();

  ASSERT_TRUE(latch.UpgradeToWriteLockOrRestart(stale));
  latch.WriteUnlock();
  const uint64_t fresh = latch.ReadLockOrRestart();

  EXPECT_FALSE(latch.UpgradeToWriteLockOrRestart(stale));
  EXPECT_FALSE(latch.IsLocked());
  // A failed upgrade must leave the word untouched.
  EXPECT_TRUE(latch.CheckOrRestart(fresh));
}

TEST(VersionLatch, WriteLockUnconditional) {
  VersionLatch latch;
  for (int i = 0; i < 3; i++) {
    latch.WriteLock();
    EXPECT_TRUE(latch.IsLocked());
    latch.WriteUnlock();
  }
  EXPECT_EQ(latch.ReadLockOrRestart(), 6u);
}

// --------------------------------------------------------------------------
// Mutual exclusion / lost-update stress (real threads)
// --------------------------------------------------------------------------

TEST(VersionLatchStress, NoLostUpdatesUnderThreads) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  VersionLatch latch;
  // Plain (non-atomic) state on purpose: TSan proves the latch alone
  // provides the happens-before edges that make this race-free.
  uint64_t counter = 0;
  std::atomic<int> in_section{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; i++) {
        latch.WriteLock();
        EXPECT_EQ(in_section.fetch_add(1, std::memory_order_relaxed), 0);
        counter++;
        in_section.fetch_sub(1, std::memory_order_relaxed);
        latch.WriteUnlock();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIncrements);
  // Every modifying writer advanced the version exactly one step.
  EXPECT_EQ(latch.ReadLockOrRestart(),
            2ull * static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(VersionLatchStress, OptimisticReadersSeeConsistentSnapshots) {
  // Writer maintains b == a + 1 under the latch; readers validate optimistic
  // snapshots and must never observe a torn pair. Payload words are atomic
  // (relaxed) so unvalidated in-flight reads are not data races; the latch
  // protocol supplies the ordering for every VALIDATED snapshot.
  VersionLatch latch;
  std::atomic<uint64_t> a{0}, b{1};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int i = 0; i < 4000; i++) {
      latch.WriteLock();
      a.store(a.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
      b.store(a.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
      latch.WriteUnlock();
    }
    stop.store(true, std::memory_order_release);
  });

  uint64_t validated = 0;
  // Keep reading until at least one snapshot validates: once the writer is
  // done the latch is quiescent, so the next read is guaranteed to validate
  // and the loop terminates even when the writer outruns the reader entirely
  // (single-core schedulers can run the whole writer loop in one quantum).
  while (!stop.load(std::memory_order_acquire) || validated == 0) {
    const uint64_t v = latch.ReadLockOrRestart();
    const uint64_t sa = a.load(std::memory_order_relaxed);
    const uint64_t sb = b.load(std::memory_order_relaxed);
    if (!latch.CheckOrRestart(v)) continue;  // interfered with: discard
    ASSERT_EQ(sb, sa + 1) << "validated snapshot is torn";
    validated++;
  }
  writer.join();
  EXPECT_GT(validated, 0u);
  EXPECT_EQ(a.load(std::memory_order_relaxed), 4000u);
  EXPECT_EQ(latch.ReadLockOrRestart(), 2ull * 4000u);
}

// --------------------------------------------------------------------------
// Row TID-word lock
// --------------------------------------------------------------------------

TEST(RowLock, BoundedGiveUpAndReacquire) {
  std::vector<char> mem(Row::AllocSize(8));
  Row* row = Row::Init(mem.data(), 0, 7, 8, /*visible=*/true);

  ASSERT_TRUE(row->TryLock());
  // Held elsewhere: a bounded acquire must give up (the validator turns this
  // into a kLockFail abort), not wait forever.
  EXPECT_FALSE(row->LockWithSpin(16));
  row->Unlock();
  EXPECT_TRUE(row->LockWithSpin(16));
  EXPECT_TRUE(TidWord::IsLocked(row->tid.load(std::memory_order_acquire)));
  row->UnlockWithVersion(42);
  EXPECT_EQ(TidWord::Version(row->tid.load(std::memory_order_acquire)), 42u);
}

TEST(RowLock, NoLostUpdatesThroughTidWord) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 1500;
  std::vector<char> mem(Row::AllocSize(sizeof(uint64_t)));
  Row* row = Row::Init(mem.data(), 0, 1, sizeof(uint64_t), /*visible=*/true);
  std::memset(row->Data(), 0, sizeof(uint64_t));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; i++) {
        while (!row->LockWithSpin(64)) {
        }
        uint64_t v;
        std::memcpy(&v, row->Data(), sizeof(v));
        v++;
        std::memcpy(row->Data(), &v, sizeof(v));
        row->UnlockWithVersion(v);
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t final_value;
  std::memcpy(&final_value, row->Data(), sizeof(final_value));
  EXPECT_EQ(final_value, static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(TidWord::Version(row->tid.load(std::memory_order_acquire)),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(RowLock, FiberWaitsLetSuspendedHolderFinish) {
  // The holder keeps the row locked across yields, as a validator does
  // between paced validation steps. A bounded lock attempt and a stable read
  // of the row must yield while they wait, so the holder runs, releases, and
  // both succeed well inside their budgets instead of failing.
  std::vector<char> mem(Row::AllocSize(sizeof(uint64_t)));
  Row* row = Row::Init(mem.data(), 0, 3, sizeof(uint64_t), /*visible=*/true);
  std::memset(row->Data(), 0, sizeof(uint64_t));
  std::vector<int> order;
  RowRead read = RowRead::kBusy;
  uint64_t read_value = 0;
  bool locked = false;

  FiberScheduler sched;
  sched.Spawn([&] {
    ASSERT_TRUE(row->TryLock());
    for (int i = 0; i < 8; i++) FiberScheduler::YieldFiber();
    const uint64_t v = 1;
    std::memcpy(row->Data(), &v, sizeof(v));
    order.push_back(0);
    row->UnlockWithVersion(5);
  });
  sched.Spawn([&] {
    uint64_t version = 0;
    read = row->ReadConsistent(&read_value, &version);
    order.push_back(1);
  });
  sched.Spawn([&] {
    locked = row->LockWithSpin(16);
    order.push_back(2);
    if (locked) row->Unlock();
  });
  sched.Run();

  EXPECT_EQ(read, RowRead::kOk);
  EXPECT_EQ(read_value, 1u);  // the holder's write, not a torn or stale copy
  EXPECT_TRUE(locked);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(TidWord::IsLocked(row->tid.load(std::memory_order_acquire)));
}

}  // namespace
}  // namespace rocc
