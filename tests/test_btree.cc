// B+Tree unit and concurrency tests: point ops, range scans, structural
// invariants, and latch-free readers racing writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/btree.h"
#include "storage/row.h"

namespace rocc {
namespace {

// Rows for index tests: the index never dereferences payloads, so fake
// pointers carrying the key are sufficient and fast.
Row* FakeRow(uint64_t key) { return reinterpret_cast<Row*>((key << 3) | 1); }
uint64_t FakeKey(const Row* row) { return reinterpret_cast<uintptr_t>(row) >> 3; }

TEST(BTree, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.Get(1), nullptr);
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_TRUE(tree.Remove(1).not_found());
  int visits = 0;
  tree.ScanFrom(0, [&](uint64_t, Row*) {
    visits++;
    return true;
  });
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTree, InsertGetSingle) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(42, FakeRow(42)).ok());
  EXPECT_EQ(tree.Get(42), FakeRow(42));
  EXPECT_EQ(tree.Get(41), nullptr);
  EXPECT_EQ(tree.Get(43), nullptr);
  EXPECT_EQ(tree.Size(), 1u);
}

TEST(BTree, DuplicateInsertRejected) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(7, FakeRow(7)).ok());
  EXPECT_EQ(tree.Insert(7, FakeRow(8)).code(), Code::kKeyExists);
  EXPECT_EQ(tree.Get(7), FakeRow(7));
  EXPECT_EQ(tree.Size(), 1u);
}

TEST(BTree, SequentialInsertTriggersSplits) {
  BTree tree;
  const uint64_t n = 10000;
  for (uint64_t k = 0; k < n; k++) ASSERT_TRUE(tree.Insert(k, FakeRow(k)).ok());
  EXPECT_EQ(tree.Size(), n);
  EXPECT_GT(tree.Height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < n; k++) ASSERT_EQ(tree.Get(k), FakeRow(k)) << k;
}

TEST(BTree, ReverseInsert) {
  BTree tree;
  for (uint64_t k = 5000; k-- > 0;) ASSERT_TRUE(tree.Insert(k, FakeRow(k)).ok());
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < 5000; k++) ASSERT_EQ(tree.Get(k), FakeRow(k));
}

TEST(BTree, RandomInsertLookup) {
  BTree tree;
  Rng rng(1);
  std::set<uint64_t> keys;
  while (keys.size() < 20000) {
    const uint64_t k = rng.Next() >> 16;
    if (keys.insert(k).second) {
      ASSERT_TRUE(tree.Insert(k, FakeRow(k)).ok());
    }
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.Size(), keys.size());
  for (uint64_t k : keys) ASSERT_EQ(tree.Get(k), FakeRow(k));
  // Absent keys return null.
  for (int i = 0; i < 1000; i++) {
    const uint64_t k = rng.Next() >> 16;
    if (keys.count(k) == 0) {
      ASSERT_EQ(tree.Get(k), nullptr);
    }
  }
}

TEST(BTree, ScanFromDeliversSortedSuffix) {
  BTree tree;
  for (uint64_t k = 0; k < 1000; k++) tree.Insert(k * 3, FakeRow(k * 3));
  std::vector<uint64_t> seen;
  tree.ScanFrom(1500, [&](uint64_t key, Row* row) {
    EXPECT_EQ(FakeKey(row), key);
    seen.push_back(key);
    return true;
  });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), 1500u);  // 1500 = 500*3 exists
  EXPECT_EQ(seen.back(), 999u * 3);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 500u);
}

TEST(BTree, ScanRangeBounds) {
  BTree tree;
  for (uint64_t k = 0; k < 1000; k++) tree.Insert(k, FakeRow(k));
  std::vector<uint64_t> seen;
  tree.ScanRange(100, 200, [&](uint64_t key, Row*) {
    seen.push_back(key);
    return true;
  });
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 199u);
}

TEST(BTree, ScanRangeEmptyAndDegenerate) {
  BTree tree;
  for (uint64_t k = 0; k < 100; k++) tree.Insert(k, FakeRow(k));
  int visits = 0;
  auto count = [&](uint64_t, Row*) {
    visits++;
    return true;
  };
  tree.ScanRange(50, 50, count);  // empty interval
  EXPECT_EQ(visits, 0);
  tree.ScanRange(60, 50, count);  // inverted interval
  EXPECT_EQ(visits, 0);
  tree.ScanRange(1000, 2000, count);  // beyond all keys
  EXPECT_EQ(visits, 0);
}

TEST(BTree, ScanEarlyStop) {
  BTree tree;
  for (uint64_t k = 0; k < 1000; k++) tree.Insert(k, FakeRow(k));
  int visits = 0;
  tree.ScanFrom(0, [&](uint64_t, Row*) { return ++visits < 10; });
  EXPECT_EQ(visits, 10);
}

TEST(BTree, ScanAcrossSparseKeys) {
  BTree tree;
  // Clustered keys with big gaps, mimicking TPC-C's composite encodings.
  for (uint64_t hi = 0; hi < 20; hi++) {
    for (uint64_t lo = 0; lo < 30; lo++) tree.Insert((hi << 24) | lo, FakeRow(lo));
  }
  std::vector<uint64_t> seen;
  tree.ScanRange(5ull << 24, 6ull << 24, [&](uint64_t key, Row*) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen.size(), 30u);
  for (uint64_t k : seen) EXPECT_EQ(k >> 24, 5u);
}

TEST(BTree, RemoveBasics) {
  BTree tree;
  for (uint64_t k = 0; k < 1000; k++) tree.Insert(k, FakeRow(k));
  for (uint64_t k = 0; k < 1000; k += 2) ASSERT_TRUE(tree.Remove(k).ok());
  EXPECT_EQ(tree.Size(), 500u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < 1000; k++) {
    if (k % 2 == 0) {
      ASSERT_EQ(tree.Get(k), nullptr);
    } else {
      ASSERT_EQ(tree.Get(k), FakeRow(k));
    }
  }
  EXPECT_TRUE(tree.Remove(0).not_found());
}

TEST(BTree, RemoveAllThenReinsert) {
  BTree tree;
  for (uint64_t k = 0; k < 2000; k++) tree.Insert(k, FakeRow(k));
  for (uint64_t k = 0; k < 2000; k++) ASSERT_TRUE(tree.Remove(k).ok());
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < 2000; k++) ASSERT_TRUE(tree.Insert(k, FakeRow(k)).ok());
  EXPECT_EQ(tree.Size(), 2000u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTree, MixedOpsAgainstReferenceSet) {
  BTree tree;
  std::set<uint64_t> ref;
  Rng rng(99);
  for (int i = 0; i < 50000; i++) {
    const uint64_t k = rng.Uniform(5000);
    switch (rng.Uniform(3)) {
      case 0: {
        const bool inserted = ref.insert(k).second;
        EXPECT_EQ(tree.Insert(k, FakeRow(k)).ok(), inserted);
        break;
      }
      case 1: {
        const bool erased = ref.erase(k) > 0;
        EXPECT_EQ(tree.Remove(k).ok(), erased);
        break;
      }
      default:
        EXPECT_EQ(tree.Get(k) != nullptr, ref.count(k) > 0);
    }
  }
  EXPECT_EQ(tree.Size(), ref.size());
  EXPECT_TRUE(tree.CheckInvariants());
  std::vector<uint64_t> scanned;
  tree.ScanFrom(0, [&](uint64_t key, Row*) {
    scanned.push_back(key);
    return true;
  });
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(), ref.begin(), ref.end()));
}

// --------------------------------------------------------------------------
// Concurrency
// --------------------------------------------------------------------------

TEST(BTreeConcurrency, ParallelDisjointInserts) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        const uint64_t k = i * kThreads + t;  // interleaved: adjacent keys race
        ASSERT_TRUE(tree.Insert(k, FakeRow(k)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.Size(), kThreads * kPerThread);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t k = 0; k < kThreads * kPerThread; k++) {
    ASSERT_EQ(tree.Get(k), FakeRow(k)) << k;
  }
}

TEST(BTreeConcurrency, RacingInsertsOnSameKeysOneWinnerEach) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 5000;
  std::atomic<uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (uint64_t k = 0; k < kKeys; k++) {
        if (tree.Insert(k, FakeRow(k)).ok()) wins.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(tree.Size(), kKeys);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeConcurrency, ReadersNeverSeeTornStateDuringInserts) {
  BTree tree;
  for (uint64_t k = 0; k < 1000; k += 2) tree.Insert(k, FakeRow(k));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (uint64_t k = 1; k < 100000; k += 2) tree.Insert(k, FakeRow(k));
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      Rng rng(r + 1);
      while (!stop.load()) {
        // Point gets: a present even key must always be found with its value.
        const uint64_t k = rng.Uniform(500) * 2;
        Row* row = tree.Get(k);
        if (row != FakeRow(k)) failed.store(true);
        // Scans must deliver sorted keys with matching values.
        uint64_t prev = 0;
        bool first = true;
        tree.ScanRange(k, k + 50, [&](uint64_t key, Row* vrow) {
          if (!first && key <= prev) failed.store(true);
          if (FakeKey(vrow) != key && (key % 2) == 0) failed.store(true);
          prev = key;
          first = false;
          return true;
        });
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeConcurrency, MixedInsertRemoveKeepsInvariants) {
  BTree tree;
  for (uint64_t k = 0; k < 10000; k++) tree.Insert(k, FakeRow(k));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      Rng rng(t + 100);
      for (int i = 0; i < 20000; i++) {
        const uint64_t k = rng.Uniform(20000);
        if (rng.Uniform(2) == 0) {
          tree.Insert(k, FakeRow(k));
        } else {
          tree.Remove(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace rocc
