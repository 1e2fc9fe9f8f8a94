// Tests for the lock-free circular transaction list (TxnRing), the
// RangeManager partitioning, and the EpochManager reclamation rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/range_manager.h"
#include "core/txn_ring.h"
#include "txn/epoch.h"

namespace rocc {
namespace {

// --------------------------------------------------------------------------
// TxnRing
// --------------------------------------------------------------------------

TEST(TxnRing, VersionStartsAtZero) {
  TxnRing ring(16);
  EXPECT_EQ(ring.Version(), 0u);
  EXPECT_EQ(ring.capacity(), 16u);
}

TEST(TxnRing, RegisterIncrementsVersionByOne) {
  TxnRing ring(16);
  TxnDescriptor t;
  for (uint64_t i = 1; i <= 10; i++) {
    EXPECT_EQ(ring.Register(&t), i);
    EXPECT_EQ(ring.Version(), i);
  }
}

TEST(TxnRing, GetReturnsRegistrant) {
  TxnRing ring(16);
  TxnDescriptor a, b, c;
  ring.Register(&a);
  ring.Register(&b);
  ring.Register(&c);
  EXPECT_EQ(ring.Get(1), &a);
  EXPECT_EQ(ring.Get(2), &b);
  EXPECT_EQ(ring.Get(3), &c);
}

TEST(TxnRing, WrapOverwritesOldSlots) {
  TxnRing ring(4);
  std::vector<TxnDescriptor> descs(10);
  for (int i = 0; i < 10; i++) ring.Register(&descs[i]);
  // Sequences 7..10 live in the 4 slots; older ones are gone.
  for (uint64_t seq = 1; seq <= 6; seq++) EXPECT_EQ(ring.Get(seq), nullptr) << seq;
  for (uint64_t seq = 7; seq <= 10; seq++) {
    EXPECT_EQ(ring.Get(seq), &descs[seq - 1]) << seq;
  }
}

TEST(TxnRing, GetOfUnissuedSequenceIsNull) {
  TxnRing ring(8);
  TxnDescriptor t;
  ring.Register(&t);
  EXPECT_EQ(ring.Get(5), nullptr);
}

TEST(TxnRing, CapacityOneDegenerates) {
  TxnRing ring(1);
  TxnDescriptor a, b;
  EXPECT_EQ(ring.Register(&a), 1u);
  EXPECT_EQ(ring.Get(1), &a);
  EXPECT_EQ(ring.Register(&b), 2u);
  EXPECT_EQ(ring.Get(1), nullptr);
  EXPECT_EQ(ring.Get(2), &b);
}

TEST(TxnRingConcurrency, AllSequencesUniqueUnderContention) {
  TxnRing ring(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<uint64_t>> seqs(kThreads);
  std::vector<TxnDescriptor> descs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) seqs[t].push_back(ring.Register(&descs[t]));
    });
  }
  for (auto& th : threads) th.join();

  std::vector<uint64_t> all;
  for (auto& v : seqs) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); i++) ASSERT_EQ(all[i], i + 1);
  EXPECT_EQ(ring.Version(), static_cast<uint64_t>(kThreads) * kPerThread);

  // Every surviving slot resolves to the thread that registered it.
  const uint64_t version = ring.Version();
  const uint64_t lo = version > ring.capacity() ? version - ring.capacity() + 1 : 1;
  for (uint64_t seq = lo; seq <= version; seq++) {
    TxnDescriptor* d = ring.Get(seq);
    ASSERT_NE(d, nullptr);
    const int owner = static_cast<int>(d - descs.data());
    // Per-thread sequences are monotonically increasing, so binary search.
    ASSERT_TRUE(std::binary_search(seqs[owner].begin(), seqs[owner].end(), seq));
  }
}

TEST(TxnRingConcurrency, ReadersGetTrueRegistrantOrNull) {
  // A small ring that wraps constantly: concurrent Gets must return either
  // nullptr or the exact descriptor registered at that sequence — never a
  // different registrant. One writer keeps an exact seq -> descriptor map.
  TxnRing ring(8);
  constexpr uint64_t kTotal = 300000;
  std::vector<TxnDescriptor> descs(64);
  std::vector<std::atomic<TxnDescriptor*>> by_seq(kTotal + 1);
  for (auto& p : by_seq) p.store(nullptr, std::memory_order_relaxed);
  std::atomic<uint64_t> published{0};
  std::atomic<bool> wrong{false};

  std::thread writer([&] {
    for (uint64_t i = 0; i < kTotal; i++) {
      TxnDescriptor* d = &descs[i % descs.size()];
      const uint64_t seq = ring.Register(d);
      by_seq[seq].store(d, std::memory_order_release);
      published.store(seq, std::memory_order_release);
    }
  });
  std::thread reader([&] {
    Rng rng(55);
    while (published.load(std::memory_order_acquire) < kTotal) {
      const uint64_t hi = published.load(std::memory_order_acquire);
      if (hi == 0) continue;
      const uint64_t seq = hi - rng.Uniform(std::min<uint64_t>(hi, 16));
      TxnDescriptor* got = ring.Get(seq);
      if (got == nullptr) continue;
      TxnDescriptor* expect = by_seq[seq].load(std::memory_order_acquire);
      // by_seq publication may lag Register slightly; only flag a mismatch
      // when the truth is known.
      if (expect != nullptr && got != expect) {
        wrong.store(true);
        break;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(wrong.load());
}

TEST(TxnRing, TagCheckAcrossManyWrapGenerations) {
  // Sequence tags disambiguate slot aliases: seq and seq + k*capacity land in
  // the same slot, so Get must reject every generation but the live one. Walk
  // eight full wraps and verify the visible window is exactly the last
  // `capacity` registrations after every single Register.
  constexpr uint32_t kCap = 8;
  TxnRing ring(kCap);
  std::vector<TxnDescriptor> descs(kCap * 8);
  for (uint64_t i = 0; i < descs.size(); i++) {
    ring.Register(&descs[i]);
    const uint64_t version = ring.Version();
    ASSERT_EQ(version, i + 1);
    const uint64_t lo = version > kCap ? version - kCap + 1 : 1;
    for (uint64_t seq = 1; seq <= version; seq++) {
      if (seq >= lo) {
        ASSERT_EQ(ring.Get(seq), &descs[seq - 1]) << "live seq " << seq;
      } else {
        ASSERT_EQ(ring.Get(seq), nullptr)
            << "stale generation leaked through slot alias, seq " << seq;
      }
    }
  }
}

TEST(TxnRingConcurrency, WrapPressureNeverServesWrongRegistrant) {
  // Registration pressure on a tiny ring: every slot is overwritten thousands
  // of times while readers probe the whole issued window. A Get may say
  // nullptr (overwritten or mid-publish) but must never resolve a sequence
  // to a different transaction's descriptor — that would let a validator
  // read the wrong writeset. Writers keep per-thread seq logs; every reader
  // observation is checked against the exact ownership map afterwards.
  TxnRing ring(4);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50000;
  std::vector<TxnDescriptor> descs(kWriters);
  std::vector<std::vector<uint64_t>> seqs(kWriters);
  std::atomic<bool> stop{false};
  std::atomic<bool> garbage{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      seqs[w].reserve(kPerWriter);
      for (uint64_t i = 0; i < kPerWriter; i++) {
        seqs[w].push_back(ring.Register(&descs[w]));
      }
    });
  }
  std::vector<std::pair<uint64_t, TxnDescriptor*>> observed;
  std::thread reader([&] {
    Rng rng(7);
    observed.reserve(1 << 20);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t hi = ring.Version();
      if (hi == 0) continue;
      // Probe live, recently-overwritten, and long-dead sequences alike.
      const uint64_t seq = 1 + rng.Uniform(hi);
      TxnDescriptor* got = ring.Get(seq);
      if (got == nullptr) continue;
      if (got < descs.data() || got >= descs.data() + kWriters) {
        garbage.store(true);  // torn pointer: not any registrant at all
        break;
      }
      if (observed.size() < (1u << 20)) observed.emplace_back(seq, got);
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_FALSE(garbage.load());

  std::vector<int> owner(kWriters * kPerWriter + 1, -1);
  for (int w = 0; w < kWriters; w++) {
    for (const uint64_t seq : seqs[w]) {
      ASSERT_EQ(owner[seq], -1) << "duplicate sequence " << seq;
      owner[seq] = w;
    }
  }
  for (const auto& [seq, got] : observed) {
    ASSERT_EQ(got, &descs[owner[seq]])
        << "seq " << seq << " resolved to another writer's descriptor";
  }
}

// --------------------------------------------------------------------------
// RangeManager
// --------------------------------------------------------------------------

TEST(RangeManager, EqualPartitioning) {
  RangeManager rm(0, 1000, 10, 16);
  EXPECT_EQ(rm.num_ranges(), 10u);
  EXPECT_EQ(rm.range_size(), 100u);
  for (uint32_t r = 0; r < 10; r++) {
    EXPECT_EQ(rm.RangeStart(r), r * 100u);
    EXPECT_EQ(rm.RangeEnd(r), (r + 1) * 100u);
  }
}

TEST(RangeManager, RangeOfBoundaries) {
  RangeManager rm(0, 1000, 10, 16);
  EXPECT_EQ(rm.RangeOf(0), 0u);
  EXPECT_EQ(rm.RangeOf(99), 0u);
  EXPECT_EQ(rm.RangeOf(100), 1u);
  EXPECT_EQ(rm.RangeOf(999), 9u);
  // Out-of-space keys clamp instead of overflowing.
  EXPECT_EQ(rm.RangeOf(5000), 9u);
}

TEST(RangeManager, NonZeroKeyMin) {
  RangeManager rm(500, 1500, 4, 16);
  EXPECT_EQ(rm.RangeOf(500), 0u);
  EXPECT_EQ(rm.RangeOf(749), 0u);
  EXPECT_EQ(rm.RangeOf(750), 1u);
  EXPECT_EQ(rm.RangeOf(1499), 3u);
  EXPECT_EQ(rm.RangeOf(100), 0u);  // below key_min clamps to range 0
}

TEST(RangeManager, UnevenSpanLastRangeAbsorbsRemainder) {
  RangeManager rm(0, 1003, 10, 16);
  EXPECT_EQ(rm.range_size(), 101u);  // ceil(1003/10)
  EXPECT_EQ(rm.RangeEnd(9), 1003u);
  EXPECT_EQ(rm.RangeOf(1002), 9u);
  // Every key maps into [RangeStart, RangeEnd) of its range.
  for (uint64_t k = 0; k < 1003; k++) {
    const uint32_t r = rm.RangeOf(k);
    ASSERT_GE(k, rm.RangeStart(r));
    ASSERT_LT(k, rm.RangeEnd(r));
  }
}

TEST(RangeManager, SingleRangeCoversEverything) {
  RangeManager rm(0, 1ULL << 40, 1, 4);
  EXPECT_EQ(rm.RangeOf(0), 0u);
  EXPECT_EQ(rm.RangeOf((1ULL << 40) - 1), 0u);
  EXPECT_EQ(rm.RangeEnd(0), 1ULL << 40);
}

TEST(RangeManager, RingsAreIndependent) {
  RangeManager rm(0, 100, 4, 8);
  TxnDescriptor t;
  rm.ring(2).Register(&t);
  EXPECT_EQ(rm.ring(0).Version(), 0u);
  EXPECT_EQ(rm.ring(1).Version(), 0u);
  EXPECT_EQ(rm.ring(2).Version(), 1u);
  EXPECT_EQ(rm.ring(3).Version(), 0u);
}

// --------------------------------------------------------------------------
// EpochManager
// --------------------------------------------------------------------------

TEST(Epoch, AdvancesWhenAllIdle) {
  EpochManager em(2);
  const uint64_t e0 = em.Current();
  em.Enter(0);
  em.Exit(0);  // triggers TryAdvance
  EXPECT_GE(em.Current(), e0);
  em.TryAdvance();
  EXPECT_GT(em.Current(), e0);
}

TEST(Epoch, StragglerBlocksAdvance) {
  EpochManager em(2);
  em.Enter(0);  // thread 0 pinned at the current epoch
  const uint64_t pinned = em.Current();
  for (int i = 0; i < 5; i++) {
    em.Enter(1);
    em.Exit(1);
  }
  // The global epoch may advance once (thread 0's local equals it at the
  // moment of the first TryAdvance) but then stalls: the straggler's local
  // stays below the new global. MinActive is pinned either way — that is
  // what reclamation keys off.
  EXPECT_LE(em.Current(), pinned + 1);
  EXPECT_EQ(em.MinActive(), pinned);
  em.Exit(0);
  em.TryAdvance();
  EXPECT_GT(em.Current(), pinned);
}

TEST(Epoch, MinActiveIsCurrentWhenAllIdle) {
  EpochManager em(3);
  EXPECT_EQ(em.MinActive(), em.Current());
}

TEST(Epoch, RetireListReclaimsOnlyPastGrace) {
  RetireList<int> list;
  int a = 1, b = 2, c = 3;
  list.Retire(&a, 5);
  list.Retire(&b, 6);
  list.Retire(&c, 7);
  std::vector<int*> freed;
  list.Reclaim(6, [&](int* p) { freed.push_back(p); });
  ASSERT_EQ(freed.size(), 1u);  // only epoch 5 < 6
  EXPECT_EQ(freed[0], &a);
  list.Reclaim(8, [&](int* p) { freed.push_back(p); });
  EXPECT_EQ(freed.size(), 3u);
  EXPECT_EQ(list.size(), 0u);
}

TEST(Epoch, ConcurrentEnterExitMakesProgress) {
  EpochManager em(4);
  const uint64_t start = em.Current();
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; i++) {
        em.Enter(t);
        em.Exit(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(em.Current(), start);
  EXPECT_EQ(em.MinActive(), em.Current());
}

}  // namespace
}  // namespace rocc
