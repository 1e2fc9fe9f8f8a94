// Serializability property tests: concurrent workloads with global
// invariants that any non-serializable schedule would break.
//
//  1. Transfer conservation — point read/write conflicts.
//  2. Range-sum conservation — scans racing transfers (predicate validation).
//  3. Phantom count conservation — scans racing insert+delete pairs.
//  4. Same-key insert races — aborted inserts never unlink committed keys.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/hyper_gwv.h"
#include "cc/mvrcc.h"
#include "cc/silo_lrv.h"
#include "cc/two_phase_locking.h"
#include "common/rng.h"
#include "core/rocc.h"

namespace rocc {
namespace {

constexpr uint64_t kAccounts = 512;
constexpr uint64_t kInitialBalance = 1000;
constexpr uint32_t kThreads = 4;

std::unique_ptr<ConcurrencyControl> MakeProtocol(const std::string& name,
                                                 Database* db, uint32_t table,
                                                 uint64_t key_max,
                                                 uint32_t threads = kThreads) {
  if (name == "rocc" || name == "mvrcc") {
    RoccOptions opts;
    RangeConfig rc;
    rc.table_id = table;
    rc.key_min = 0;
    rc.key_max = key_max;
    rc.num_ranges = 16;
    rc.ring_capacity = 1024;
    opts.tables = {rc};
    if (name == "mvrcc") return std::make_unique<Mvrcc>(db, threads, std::move(opts));
    return std::make_unique<Rocc>(db, threads, std::move(opts));
  }
  if (name == "lrv") return std::make_unique<SiloLrv>(db, threads);
  if (name == "gwv") return std::make_unique<HyperGwv>(db, threads);
  return std::make_unique<TplNoWait>(db, threads);
}

/// Scanner driver for the conservation tests: runs `scan_once` at least
/// `attempts` times and until every writer has finished, ending with an
/// attempt that began after the last writer finished. While transfers run,
/// a scan can fail fast on every attempt, so a fixed attempt count alone
/// lets slow writers outlast the scanner and leave no committed scan to
/// check.
template <typename ScanOnce>
void ScanUntilWritersDone(int attempts, const std::atomic<uint32_t>& writers_left,
                          ScanOnce scan_once) {
  for (int i = 1;; i++) {
    const bool quiescent = writers_left.load(std::memory_order_acquire) == 0;
    scan_once();
    if (i >= attempts && quiescent) return;
  }
}

class BalanceSumConsumer : public ScanConsumer {
 public:
  bool OnRecord(uint64_t, const char* payload) override {
    uint64_t v;
    std::memcpy(&v, payload, sizeof(v));
    sum_ += v;
    count_++;
    return true;
  }
  uint64_t sum() const { return sum_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
};

class SerializabilityTest : public ::testing::TestWithParam<std::string> {
 protected:
  void LoadAccounts() {
    table_ = db_.CreateTable("accounts", Schema({{"balance", 8, 0}}));
    for (uint64_t k = 0; k < kAccounts; k++) {
      db_.LoadRow(table_, k, &kInitialBalance);
    }
  }

  /// One money transfer between two random accounts; returns commit status.
  Status Transfer(ConcurrencyControl* cc, uint32_t tid, Rng& rng) {
    const uint64_t a = rng.Uniform(kAccounts);
    uint64_t b = rng.Uniform(kAccounts - 1);
    if (b >= a) b++;
    TxnDescriptor* t = cc->Begin(tid);
    uint64_t va = 0, vb = 0;
    Status st = cc->Read(t, table_, a, &va);
    if (st.ok()) st = cc->Read(t, table_, b, &vb);
    if (!st.ok()) {
      cc->Abort(t);
      return Status::Aborted();
    }
    const uint64_t amount = rng.Uniform(10) + 1;
    if (va < amount) {
      cc->Abort(t);
      return Status::Aborted();
    }
    va -= amount;
    vb += amount;
    st = cc->Update(t, table_, a, &va, sizeof(va), 0);
    if (st.ok()) st = cc->Update(t, table_, b, &vb, sizeof(vb), 0);
    if (!st.ok()) {
      cc->Abort(t);
      return Status::Aborted();
    }
    return cc->Commit(t);
  }

  Database db_;
  uint32_t table_ = 0;
};

// Point-only conflicts: total money is conserved.
TEST_P(SerializabilityTest, TransferConservation) {
  LoadAccounts();
  auto cc = MakeProtocol(GetParam(), &db_, table_, kAccounts);
  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(1000 + tid);
      for (int i = 0; i < 4000; i++) Transfer(cc.get(), tid, rng);
    });
  }
  for (auto& th : threads) th.join();

  // Quiescent check: sum of all balances unchanged.
  uint64_t total = 0;
  db_.GetIndex(table_)->ScanFrom(0, [&](uint64_t, Row* row) {
    uint64_t v;
    std::memcpy(&v, row->Data(), sizeof(v));
    total += v;
    return true;
  });
  EXPECT_EQ(total, kAccounts * kInitialBalance);
}

// Scans racing transfers: every committed range-sum over ALL accounts must
// equal the invariant total — a stale or torn scan that commits breaks this.
TEST_P(SerializabilityTest, RangeSumConservationUnderTransfers) {
  LoadAccounts();
  auto cc = MakeProtocol(GetParam(), &db_, table_, kAccounts);
  std::atomic<bool> violation{false};
  std::atomic<uint64_t> committed_scans{0};
  std::atomic<uint32_t> writers_left{kThreads - 1};

  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(2000 + tid);
      if (tid == 0) {
        // Dedicated scanner thread: full-table sum.
        ScanUntilWritersDone(1500, writers_left, [&] {
          TxnDescriptor* t = cc->Begin(tid);
          t->is_scan_txn = true;
          BalanceSumConsumer sum;
          Status st = cc->Scan(t, table_, 0, kAccounts, 0, &sum);
          if (!st.ok()) {
            cc->Abort(t);
            return;
          }
          if (cc->Commit(t).ok()) {
            committed_scans.fetch_add(1);
            if (sum.count() != kAccounts ||
                sum.sum() != kAccounts * kInitialBalance) {
              violation.store(true);
            }
          }
        });
        return;
      }
      for (int i = 0; i < 1500; i++) Transfer(cc.get(), tid, rng);
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(committed_scans.load(), 0u);
}

// Partial-range sums: scans cover one logical-range-sized window while
// transfers are restricted to stay inside the same window, so the window sum
// is invariant. Exercises partial predicates and precise boundaries.
TEST_P(SerializabilityTest, WindowSumConservation) {
  LoadAccounts();
  auto cc = MakeProtocol(GetParam(), &db_, table_, kAccounts);
  constexpr uint64_t kWindowStart = 128;
  constexpr uint64_t kWindowEnd = 192;  // 64 accounts
  std::atomic<bool> violation{false};
  std::atomic<uint64_t> committed_scans{0};
  std::atomic<uint32_t> writers_left{kThreads - 1};

  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(3000 + tid);
      if (tid == 0) {
        ScanUntilWritersDone(1500, writers_left, [&] {
          TxnDescriptor* t = cc->Begin(tid);
          BalanceSumConsumer sum;
          Status st = cc->Scan(t, table_, kWindowStart, kWindowEnd, 0, &sum);
          if (!st.ok()) {
            cc->Abort(t);
            return;
          }
          if (cc->Commit(t).ok()) {
            committed_scans.fetch_add(1);
            if (sum.sum() != (kWindowEnd - kWindowStart) * kInitialBalance) {
              violation.store(true);
            }
          }
        });
        return;
      }
      for (int i = 0; i < 1500; i++) {
        // Transfer within the window only.
        const uint64_t a = kWindowStart + rng.Uniform(kWindowEnd - kWindowStart);
        uint64_t b = kWindowStart + rng.Uniform(kWindowEnd - kWindowStart);
        if (a == b) continue;
        TxnDescriptor* t = cc->Begin(tid);
        uint64_t va = 0, vb = 0;
        Status st = cc->Read(t, table_, a, &va);
        if (st.ok()) st = cc->Read(t, table_, b, &vb);
        if (st.ok() && va >= 1) {
          va -= 1;
          vb += 1;
          st = cc->Update(t, table_, a, &va, sizeof(va), 0);
          if (st.ok()) st = cc->Update(t, table_, b, &vb, sizeof(vb), 0);
        }
        if (!st.ok()) {
          cc->Abort(t);
          continue;
        }
        cc->Commit(t);
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(committed_scans.load(), 0u);
}

// Phantom protection: writers replace one of "their" keys with a fresh key
// (insert new + delete old in one txn), keeping the total row count constant.
// Scanner transactions count rows; any committed count != initial means a
// phantom slipped through validation. 2PL-NW is excluded: it documents no
// phantom protection.
TEST_P(SerializabilityTest, PhantomCountConservation) {
  if (GetParam() == "2pl") GTEST_SKIP() << "2PL-NW has no phantom protection";
  table_ = db_.CreateTable("accounts", Schema({{"balance", 8, 0}}));
  // Each writer thread owns a private key region so insert/delete targets
  // never collide between threads: region base = tid * 1e6.
  constexpr uint64_t kPerThread = 64;
  constexpr uint64_t kRegion = 1 << 20;
  uint64_t total_rows = 0;
  for (uint32_t tid = 1; tid < kThreads; tid++) {
    for (uint64_t i = 0; i < kPerThread; i++) {
      const uint64_t v = 1;
      db_.LoadRow(table_, tid * kRegion + i, &v);
      total_rows++;
    }
  }
  auto cc = MakeProtocol(GetParam(), &db_, table_, kThreads * kRegion);
  std::atomic<bool> violation{false};
  std::atomic<uint64_t> committed_scans{0};
  std::atomic<uint32_t> writers_left{kThreads - 1};

  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(4000 + tid);
      if (tid == 0) {
        ScanUntilWritersDone(1000, writers_left, [&] {
          TxnDescriptor* t = cc->Begin(tid);
          BalanceSumConsumer counter;
          Status st = cc->Scan(t, table_, 0, kThreads * kRegion, 0, &counter);
          if (!st.ok()) {
            cc->Abort(t);
            return;
          }
          if (cc->Commit(t).ok()) {
            committed_scans.fetch_add(1);
            if (counter.count() != total_rows) violation.store(true);
          }
        });
        return;
      }
      // Writer: maintain a moving window of live keys [low, low+kPerThread).
      uint64_t low = tid * kRegion;
      uint64_t next = low + kPerThread;
      for (int i = 0; i < 1000; i++) {
        TxnDescriptor* t = cc->Begin(tid);
        const uint64_t v = 1;
        Status st = cc->Insert(t, table_, next, &v);
        if (st.ok()) st = cc->Remove(t, table_, low);
        if (!st.ok()) {
          cc->Abort(t);
          continue;
        }
        if (cc->Commit(t).ok()) {
          low++;
          next++;
        }
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(committed_scans.load(), 0u);

  // Quiescent recount via the raw index (skipping tombstones).
  uint64_t rows = 0;
  db_.GetIndex(table_)->ScanFrom(0, [&](uint64_t, Row* row) {
    if (!row->IsAbsent()) rows++;
    return true;
  });
  EXPECT_EQ(rows, total_rows);
}

/// Commit one increment of `key` on worker slot `tid`, retrying conflicts.
void BumpHotRow(ConcurrencyControl* cc, uint32_t tid, uint32_t table,
                uint64_t key) {
  for (;;) {
    TxnDescriptor* t = cc->Begin(tid);
    uint64_t v = 0;
    Status st = cc->Read(t, table, key, &v);
    v++;
    if (st.ok()) st = cc->Update(t, table, key, &v, sizeof(v), 0);
    if (!st.ok()) {
      cc->Abort(t);
      continue;
    }
    if (cc->Commit(t).ok()) return;
  }
}

// Same-key insert races. An aborting inserter must unlink its fresh
// placeholder before it unlocks it: in between, a concurrent inserter of the
// same key could resurrect the unlocked placeholder and commit it, and the
// aborter's key-based Remove would then unlink a committed row. Real threads
// only: a fiber cannot be switched out between the unlock and the Remove.
//
// Each round, every thread tries to insert the round's keys in the same
// order until someone commits each key. Half the attempts abort after their
// placeholder exists: 2PL aborts explicitly after Insert; in the OCC schemes
// the attempt also read-modify-writes one hot row, and the thread commits a
// second update of that row, through a spare worker slot, between the read
// and the commit. The commit's lock phase indexes the placeholder (its key
// sorts before the hot row) and validation then fails.
TEST_P(SerializabilityTest, AbortedInsertsNeverUnlinkCommittedKeys) {
  table_ = db_.CreateTable("accounts", Schema({{"balance", 8, 0}}));
  constexpr uint64_t kKeys = 16;
  constexpr uint64_t kRounds = 3000;
  constexpr int kMaxAttempts = 64;
  constexpr uint64_t kHotKey = kRounds * kKeys;  // sorts after every insert
  const uint64_t zero = 0;
  db_.LoadRow(table_, kHotKey, &zero);
  auto cc = MakeProtocol(GetParam(), &db_, table_, kHotKey + 1, 2 * kThreads);
  const bool two_pl = GetParam() == "2pl";
  std::vector<std::atomic<uint32_t>> commits(kRounds * kKeys);
  std::barrier round_start(kThreads);

  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; tid++) {
    threads.emplace_back([&, tid] {
      for (uint64_t round = 0; round < kRounds; round++) {
        round_start.arrive_and_wait();
        for (uint64_t key = round * kKeys; key < (round + 1) * kKeys; key++) {
          for (int attempt = 0;
               attempt < kMaxAttempts &&
               commits[key].load(std::memory_order_acquire) == 0;
               attempt++) {
            const bool doomed = (attempt + tid) % 2 == 0;
            TxnDescriptor* t = cc->Begin(tid);
            Status st = Status::Ok();
            if (doomed && !two_pl) {
              uint64_t hot = 0;
              st = cc->Read(t, table_, kHotKey, &hot);
              BumpHotRow(cc.get(), tid + kThreads, table_, kHotKey);
              hot++;
              if (st.ok()) st = cc->Update(t, table_, kHotKey, &hot, sizeof(hot), 0);
            }
            const uint64_t v = 1;
            if (st.ok()) st = cc->Insert(t, table_, key, &v);
            if (!st.ok() || (doomed && two_pl)) {
              cc->Abort(t);
              continue;
            }
            if (cc->Commit(t).ok()) {
              commits[key].fetch_add(1, std::memory_order_acq_rel);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // A committed key is committed once and indexed to a live row; a key no
  // attempt committed is not live.
  uint64_t bad_rounds = 0;
  uint64_t committed_keys = 0;
  OrderedIndex* idx = db_.GetIndex(table_);
  for (uint64_t round = 0; round < kRounds; round++) {
    bool bad = false;
    for (uint64_t key = round * kKeys; key < (round + 1) * kKeys; key++) {
      const uint32_t n = commits[key].load(std::memory_order_relaxed);
      const Row* row = idx->Get(key);
      const bool live = row != nullptr && !row->IsAbsent();
      if (n > 1 || live != (n == 1)) bad = true;
      committed_keys += n;
    }
    if (bad) bad_rounds++;
  }
  EXPECT_EQ(bad_rounds, 0u) << "lost or duplicated keys in " << bad_rounds
                            << " of " << kRounds << " rounds";
  EXPECT_GT(committed_keys, kRounds * kKeys / 2);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SerializabilityTest,
                         ::testing::Values("rocc", "lrv", "gwv", "mvrcc", "2pl"),
                         [](const auto& pinfo) { return pinfo.param; });

}  // namespace
}  // namespace rocc
