// Multi-version row store: commit-watermark safety, randomized chain
// resolution against a reference model, snapshot consistency under concurrent
// writers, abort-free snapshot scans end-to-end (fiber runner), chain-leak
// detection, and the incremental Prometheus streamer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cc/silo_lrv.h"
#include "common/rng.h"
#include "harness/runner.h"
#include "mv/version_store.h"
#include "obs/prometheus.h"
#include "storage/database.h"
#include "txn/clock.h"
#include "workload/ycsb.h"

namespace rocc {
namespace {

// --------------------------------------------------------------------------
// Commit watermark
// --------------------------------------------------------------------------

TEST(CommitWatermark, PinsBelowInflightCommitAndStaysMonotone) {
  GlobalClock clock;
  CommitWatermark wm(&clock, 4);
  EXPECT_EQ(wm.SafeSnapshot(), GlobalClock::kInitialVersion);
  clock.Next();
  clock.Next();
  EXPECT_EQ(wm.SafeSnapshot(), clock.Current());

  // A writer in its commit window publishes BEFORE drawing its timestamp, so
  // the watermark stays strictly below that timestamp until EndCommit — even
  // while other commits keep advancing the clock.
  wm.BeginCommit(0);
  const uint64_t cts = clock.Next();
  EXPECT_LT(wm.SafeSnapshot(), cts);
  clock.Next();
  clock.Next();
  EXPECT_LT(wm.SafeSnapshot(), cts);

  const uint64_t before = wm.SafeSnapshot();
  wm.EndCommit(0);
  const uint64_t after = wm.SafeSnapshot();
  EXPECT_GE(after, before);
  EXPECT_EQ(after, clock.Current());
}

TEST(CommitWatermark, MonotoneUnderConcurrentCommitWindows) {
  GlobalClock clock;
  CommitWatermark wm(&clock, 4);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> committers;
  for (uint32_t tid = 0; tid < 2; tid++) {
    committers.emplace_back([&, tid] {
      for (int i = 0; i < 50000; i++) {
        wm.BeginCommit(tid);
        const uint64_t cts = clock.Next();
        // The snapshot source must never certify our still-open commit.
        if (wm.SafeSnapshot() >= cts) failed.store(true);
        wm.EndCommit(tid);
      }
      stop.store(true);
    });
  }
  std::thread observer([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      const uint64_t s = wm.SafeSnapshot();
      if (s < last) failed.store(true);
      last = s;
    }
  });
  for (auto& t : committers) t.join();
  observer.join();
  EXPECT_FALSE(failed.load());
}

// --------------------------------------------------------------------------
// Randomized chain resolution vs a reference model
// --------------------------------------------------------------------------

// Drives a single-version OCC protocol with MVCC enabled through a random
// history of updates, deletes, and re-inserts over a small key set, mirroring
// every commit into a per-key std::map<commit_ts, value-or-tombstone>. A
// snapshot acquired mid-history pins the prune floor; afterwards every
// timestamp at or above the pin must resolve each row to exactly the
// reference's newest-version-at-or-below rule.
TEST(MvccChainModel, RandomHistoryMatchesReference) {
  constexpr uint64_t kKeys = 16;
  constexpr uint32_t kPayload = 16;
  constexpr int kCommits = 1500;
  constexpr int kPinAt = 750;

  Database db;
  Schema schema({{"v", kPayload, 0}});
  const uint32_t table = db.CreateTable("t", std::move(schema));
  for (uint64_t k = 0; k < kKeys; k++) {
    char payload[kPayload] = {};
    const uint64_t v = k * 10;
    std::memcpy(payload, &v, sizeof(v));
    db.LoadRow(table, k, payload);
  }

  SiloLrv cc(&db, 4);
  ASSERT_TRUE(cc.EnableMvcc());
  mv::VersionStore* vs = cc.version_store();
  ASSERT_NE(vs, nullptr);
  TxnStats stats;
  cc.AttachThread(0, &stats);

  // reference[k]: commit_ts -> payload value, nullopt = deleted at that ts.
  std::map<uint64_t, std::optional<uint64_t>> reference[kKeys];
  bool live[kKeys];
  for (uint64_t k = 0; k < kKeys; k++) {
    reference[k][GlobalClock::kInitialVersion] = k * 10;
    live[k] = true;
  }

  Rng rng(42);
  uint64_t pin = 0;
  for (int i = 0; i < kCommits; i++) {
    if (i == kPinAt) pin = vs->AcquireSnapshot(1);

    const uint64_t k = rng.Next() % kKeys;
    const uint64_t dice = rng.Next() % 10;
    TxnDescriptor* t = cc.Begin(0);
    std::optional<uint64_t> new_value;
    if (live[k] && dice == 0) {
      ASSERT_TRUE(cc.Remove(t, table, k).ok());
      live[k] = false;
    } else if (!live[k]) {
      char payload[kPayload] = {};
      const uint64_t v = 1000000 + static_cast<uint64_t>(i);
      std::memcpy(payload, &v, sizeof(v));
      ASSERT_TRUE(cc.Insert(t, table, k, payload).ok());
      new_value = v;
      live[k] = true;
    } else {
      const uint64_t v = static_cast<uint64_t>(i);
      ASSERT_TRUE(cc.Update(t, table, k, &v, sizeof(v), 0).ok());
      new_value = v;
    }
    ASSERT_TRUE(cc.Commit(t).ok());

    // Single-threaded: the row's unlocked TID word is this commit's ts.
    Row* row = db.GetIndex(table)->Get(k);
    ASSERT_NE(row, nullptr);
    uint64_t word = 0;
    ASSERT_TRUE(row->ReadVersion(&word));
    ASSERT_EQ(TidWord::IsAbsent(word), !live[k]);
    reference[k][TidWord::Version(word)] = new_value;
  }
  ASSERT_GT(pin, 0u);

  // Timestamps to check: the pin itself, every commit ts >= pin, and random
  // fillers (hitting interval interiors, not just boundaries).
  std::vector<uint64_t> snapshots = {pin};
  uint64_t max_ts = pin;
  for (uint64_t k = 0; k < kKeys; k++) {
    for (const auto& [ts, value] : reference[k]) {
      if (ts >= pin) snapshots.push_back(ts);
      max_ts = std::max(max_ts, ts);
    }
  }
  for (int i = 0; i < 200; i++) {
    snapshots.push_back(pin + rng.Next() % (max_ts - pin + 1));
  }

  char buf[kPayload];
  for (const uint64_t snap : snapshots) {
    for (uint64_t k = 0; k < kKeys; k++) {
      Row* row = db.GetIndex(table)->Get(k);
      ASSERT_NE(row, nullptr);  // tombstone removal is deferred under MVCC
      auto it = reference[k].upper_bound(snap);
      ASSERT_NE(it, reference[k].begin());
      const std::optional<uint64_t>& expected = std::prev(it)->second;

      const mv::SnapshotRead rd = vs->ReadAtSnapshot(row, snap, buf, &stats);
      if (!expected.has_value()) {
        EXPECT_EQ(rd, mv::SnapshotRead::kInvisible)
            << "key " << k << " snapshot " << snap;
      } else {
        ASSERT_NE(rd, mv::SnapshotRead::kInvisible)
            << "key " << k << " snapshot " << snap;
        uint64_t got = 0;
        std::memcpy(&got, buf, sizeof(got));
        EXPECT_EQ(got, *expected) << "key " << k << " snapshot " << snap;
      }
    }
  }

  EXPECT_GT(stats.mv_versions_installed, 0u);
  EXPECT_GT(stats.mv_chain_length.count(), 0u);
  EXPECT_GT(stats.mv_chain_reads, 0u);

  // Release the pin and quiesce: every chain must drain and deferred
  // tombstones must leave the index.
  vs->ReleaseSnapshot(1);
  vs->GcQuiesce(&db);
  EXPECT_EQ(vs->Telemetry().live_nodes(), 0u);
  EXPECT_EQ(vs->Telemetry().live_bytes(), 0u);
  for (uint64_t k = 0; k < kKeys; k++) {
    Row* row = db.GetIndex(table)->Get(k);
    EXPECT_EQ(row == nullptr, !live[k]) << "key " << k;
  }
}

// --------------------------------------------------------------------------
// Snapshot consistency under concurrent writers (real threads)
// --------------------------------------------------------------------------

class SumConsumer : public ScanConsumer {
 public:
  bool OnRecord(uint64_t, const char* payload) override {
    uint64_t v = 0;
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

// Writers transfer random amounts between accounts; a concurrent snapshot
// scanner sums all balances. Every scan must observe the invariant total —
// a frozen snapshot never sees half a transfer — and must never abort.
TEST(MvccSnapshotConsistency, TransfersPreserveTheSumInvariant) {
  constexpr uint64_t kAccounts = 64;
  constexpr uint64_t kInitialBalance = 1000;
  constexpr uint32_t kPayload = 16;
  constexpr int kTransfersPerWriter = 4000;

  Database db;
  Schema schema({{"bal", kPayload, 0}});
  const uint32_t table = db.CreateTable("accounts", std::move(schema));
  for (uint64_t k = 0; k < kAccounts; k++) {
    char payload[kPayload] = {};
    std::memcpy(payload, &kInitialBalance, sizeof(kInitialBalance));
    db.LoadRow(table, k, payload);
  }

  SiloLrv cc(&db, 4);
  ASSERT_TRUE(cc.EnableMvcc());
  TxnStats stats[4];
  for (uint32_t tid = 0; tid < 4; tid++) cc.AttachThread(tid, &stats[tid]);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_sums{0};
  std::atomic<uint64_t> scan_failures{0};
  std::atomic<uint64_t> scans_done{0};

  auto writer = [&](uint32_t tid) {
    Rng rng(1000 + tid);
    for (int i = 0; i < kTransfersPerWriter; i++) {
      const uint64_t a = rng.Next() % kAccounts;
      uint64_t b = rng.Next() % kAccounts;
      if (b == a) b = (b + 1) % kAccounts;
      const uint64_t amount = 1 + rng.Next() % 10;
      for (;;) {  // retry the transfer until it commits
        TxnDescriptor* t = cc.Begin(tid);
        char buf[kPayload];
        uint64_t bal_a = 0, bal_b = 0;
        if (!cc.Read(t, table, a, buf).ok()) {
          cc.Abort(t);
          continue;
        }
        std::memcpy(&bal_a, buf, sizeof(bal_a));
        if (!cc.Read(t, table, b, buf).ok()) {
          cc.Abort(t);
          continue;
        }
        std::memcpy(&bal_b, buf, sizeof(bal_b));
        const uint64_t new_a = bal_a - amount;
        const uint64_t new_b = bal_b + amount;
        if (!cc.Update(t, table, a, &new_a, sizeof(new_a), 0).ok() ||
            !cc.Update(t, table, b, &new_b, sizeof(new_b), 0).ok()) {
          cc.Abort(t);
          continue;
        }
        if (cc.Commit(t).ok()) break;
      }
    }
  };

  auto scanner = [&](uint32_t tid) {
    while (!stop.load(std::memory_order_relaxed)) {
      TxnDescriptor* t = cc.Begin(tid);
      SumConsumer consumer;
      const Status st =
          cc.SnapshotScan(t, table, 0, /*end_key=*/0, /*limit=*/0, &consumer);
      if (!st.ok()) {
        scan_failures.fetch_add(1);
        cc.Abort(t);
        continue;
      }
      if (!cc.Commit(t).ok()) {
        scan_failures.fetch_add(1);
        continue;
      }
      if (consumer.count() != kAccounts ||
          consumer.sum() != kAccounts * kInitialBalance) {
        bad_sums.fetch_add(1);
      }
      scans_done.fetch_add(1);
    }
  };

  std::thread w0(writer, 0), w1(writer, 1);
  std::thread s0(scanner, 2), s1(scanner, 3);
  w0.join();
  w1.join();
  stop.store(true);
  s0.join();
  s1.join();

  EXPECT_GT(scans_done.load(), 0u);
  EXPECT_EQ(bad_sums.load(), 0u);
  EXPECT_EQ(scan_failures.load(), 0u);

  // Chain-leak check: with no thread inside a transaction, a full quiesce
  // must return every version node.
  mv::VersionStore* vs = cc.version_store();
  vs->GcQuiesce(&db);
  EXPECT_EQ(vs->Telemetry().live_nodes(), 0u);
}

// --------------------------------------------------------------------------
// End-to-end: composite workload under the fiber runner
// --------------------------------------------------------------------------

// The headline property: with snapshot scans on, read-only bulk transactions
// NEVER abort, no matter how hot the concurrent point-write traffic is.
TEST(MvccFiberE2E, SnapshotScansNeverAbort) {
  YcsbOptions opts;
  opts.num_rows = 20000;
  opts.theta = 0.9;  // hot point writes into the scanned space
  opts.scan_txn_fraction = 0.2;
  opts.scan_length = 100;
  opts.snapshot_scans = true;
  YcsbWorkload workload(opts);
  Database db;
  workload.Load(&db);

  auto cc = CreateProtocol("rocc+mv", &db, workload, /*num_threads=*/16);
  ASSERT_NE(cc->version_store(), nullptr);

  RunOptions run;
  run.num_threads = 16;
  run.txns_per_thread = 300;
  run.warmup_txns_per_thread = 20;
  run.mode = ExecMode::kFibers;
  const RunResult r = RunExperiment(cc.get(), &workload, run);

  EXPECT_GT(r.stats.scan_txn_commits, 0u);
  EXPECT_EQ(r.stats.scan_txn_aborts, 0u);
  EXPECT_GT(r.stats.mv_snapshot_scans, 0u);
  EXPECT_GT(r.stats.mv_snapshot_records, 0u);
  EXPECT_EQ(r.stats.give_ups, 0u);
  // Honest accounting must survive the new paths: every abort has a cause.
  EXPECT_EQ(r.stats.aborts, r.stats.AbortCauseSum());

  mv::VersionStore* vs = cc->version_store();
  vs->GcQuiesce(&db);
  EXPECT_EQ(vs->Telemetry().live_nodes(), 0u);
}

// Without MVCC the same composite workload must still run (snapshot scans
// degrade to validated scans) — the flag is safe on every protocol.
TEST(MvccFiberE2E, SnapshotFlagFallsBackWithoutVersionStore) {
  YcsbOptions opts;
  opts.num_rows = 5000;
  opts.scan_txn_fraction = 0.2;
  opts.scan_length = 50;
  opts.snapshot_scans = true;
  YcsbWorkload workload(opts);
  Database db;
  workload.Load(&db);

  auto cc = CreateProtocol("rocc", &db, workload, 8);
  EXPECT_EQ(cc->version_store(), nullptr);

  RunOptions run;
  run.num_threads = 8;
  run.txns_per_thread = 200;
  run.warmup_txns_per_thread = 10;
  run.mode = ExecMode::kFibers;
  const RunResult r = RunExperiment(cc.get(), &workload, run);
  EXPECT_GT(r.stats.scan_txn_commits, 0u);
  EXPECT_EQ(r.stats.give_ups, 0u);
}

// --------------------------------------------------------------------------
// General read-only snapshot transactions
// --------------------------------------------------------------------------

// Regression: a read-only transaction that mixes point reads WITH its scan
// (the analytics shape) must route through the snapshot path end to end and
// never validate-abort, no matter how hot the concurrent Zipfian writers
// are. An earlier version only marked the descriptor when the plan had zero
// point ops, so these transactions validated — and aborted — like plain OCC.
TEST(MvccReadOnlyTxn, MixedPointReadsAndScansNeverValidateAbort) {
  YcsbOptions opts;
  opts.num_rows = 20000;
  opts.theta = 0.95;  // hot point writes into the read/scan space
  opts.scan_txn_fraction = 0.3;
  opts.scan_length = 100;
  opts.snapshot_scans = true;
  opts.scan_txn_point_reads = 4;  // scan + hot-key lookups, one consistent cut
  YcsbWorkload workload(opts);
  Database db;
  workload.Load(&db);

  auto cc = CreateProtocol("rocc+mv", &db, workload, /*num_threads=*/16);
  ASSERT_NE(cc->version_store(), nullptr);

  RunOptions run;
  run.num_threads = 16;
  run.txns_per_thread = 300;
  run.warmup_txns_per_thread = 20;
  run.mode = ExecMode::kFibers;
  const RunResult r = RunExperiment(cc.get(), &workload, run);

  EXPECT_GT(r.stats.scan_txn_commits, 0u);
  EXPECT_EQ(r.stats.scan_txn_aborts, 0u);
  EXPECT_GT(r.stats.mv_snapshot_point_reads, 0u);
  EXPECT_GT(r.stats.mv_snapshot_txns, 0u);
  EXPECT_GT(r.stats.mv_snapshot_scans, 0u);
  EXPECT_EQ(r.stats.abort_snapshot_evicted, 0u);  // no ceiling: nothing evicts
  EXPECT_EQ(r.stats.give_ups, 0u);
  EXPECT_EQ(r.stats.aborts, r.stats.AbortCauseSum());

  mv::VersionStore* vs = cc->version_store();
  vs->GcQuiesce(&db);
  EXPECT_EQ(vs->Telemetry().live_nodes(), 0u);
  EXPECT_EQ(vs->Telemetry().gc_locked_rows, 0u);
}

// --------------------------------------------------------------------------
// Prune-pressure snapshot eviction
// --------------------------------------------------------------------------

// A long-held snapshot under sustained writes: once live version bytes cross
// the ceiling, the committer-side pressure check evicts the oldest pinned
// snapshot. The victim aborts with kSnapshotEvicted — counted exactly once,
// summing into `aborts` — on its next read AND (separately) at its trivial
// commit; a retry gets a fresh snapshot and commits. Afterwards a full
// quiesce must find zero leaked nodes and zero leaked row latches.
TEST(MvccSnapshotEviction, LongHeldSnapshotEvictedUnderPressure) {
  constexpr uint64_t kKeys = 64;
  constexpr uint32_t kPayload = 64;

  Database db;
  Schema schema({{"v", kPayload, 0}});
  const uint32_t table = db.CreateTable("t", std::move(schema));
  for (uint64_t k = 0; k < kKeys; k++) {
    char payload[kPayload] = {};
    db.LoadRow(table, k, payload);
  }

  SiloLrv cc(&db, 2);
  ASSERT_TRUE(cc.EnableMvcc());
  mv::VersionStore* vs = cc.version_store();
  TxnStats stats[2];
  cc.AttachThread(0, &stats[0]);
  cc.AttachThread(1, &stats[1]);
  vs->SetLiveBytesCeiling(2048);
  EXPECT_EQ(vs->LiveBytesCeiling(), 2048u);

  // Reader freezes its snapshot with the first point read and holds it.
  char buf[kPayload];
  TxnDescriptor* reader = cc.BeginReadOnly(1);
  ASSERT_TRUE(cc.Read(reader, table, 0, buf).ok());
  ASSERT_NE(reader->snapshot_ts, 0u);
  EXPECT_GT(vs->OldestSnapshotAgeNanos(), 0u);

  // Sustained writes: chains behind the pinned snapshot cannot prune, so
  // live bytes cross the ceiling and the pressure check (piggybacked on the
  // committer's periodic floor refresh) evicts the oldest pinned snapshot.
  Rng rng(7);
  auto write_burst = [&] {
    for (int i = 0; i < 400; i++) {
      TxnDescriptor* t = cc.Begin(0);
      const uint64_t v = rng.Next();
      ASSERT_TRUE(cc.Update(t, table, i % kKeys, &v, sizeof(v), 0).ok());
      ASSERT_TRUE(cc.Commit(t).ok());
    }
  };
  write_burst();
  EXPECT_EQ(vs->Telemetry().snapshots_evicted, 1u);
  EXPECT_TRUE(vs->SnapshotEvicted(1));
  // The sentinel no longer pins the floor: only the watermark does.
  const uint64_t fresh = vs->AcquireSnapshot(0);
  EXPECT_EQ(vs->MinSnapshot(), fresh);
  vs->ReleaseSnapshot(0);

  // The victim's next read observes the eviction and aborts with the
  // dedicated cause, counted exactly once and summing into `aborts`.
  EXPECT_FALSE(cc.Read(reader, table, 1, buf).ok());
  cc.Abort(reader);
  EXPECT_EQ(stats[1].abort_snapshot_evicted, 1u);
  EXPECT_EQ(stats[1].aborts, 1u);
  EXPECT_EQ(stats[1].aborts, stats[1].AbortCauseSum());

  // A retry acquires a fresh snapshot near the watermark and commits on the
  // trivial no-validation path.
  TxnDescriptor* retry = cc.BeginReadOnly(1);
  ASSERT_TRUE(cc.Read(retry, table, 0, buf).ok());
  ASSERT_TRUE(cc.Commit(retry).ok());
  EXPECT_EQ(stats[1].mv_snapshot_txns, 1u);
  EXPECT_EQ(stats[1].commits, 1u);

  // Commit-path detection: evict BETWEEN the victim's last read and its
  // commit — the mandatory final check catches it.
  TxnDescriptor* held = cc.BeginReadOnly(1);
  ASSERT_TRUE(cc.Read(held, table, 0, buf).ok());
  write_burst();
  EXPECT_EQ(vs->Telemetry().snapshots_evicted, 2u);
  EXPECT_FALSE(cc.Commit(held).ok());
  EXPECT_EQ(stats[1].abort_snapshot_evicted, 2u);
  EXPECT_EQ(stats[1].aborts, stats[1].AbortCauseSum());

  // Zero leaks after a full quiesce; no row latch was left held.
  vs->GcQuiesce(&db);
  EXPECT_EQ(vs->Telemetry().live_nodes(), 0u);
  EXPECT_EQ(vs->Telemetry().live_bytes(), 0u);
  EXPECT_EQ(vs->Telemetry().gc_locked_rows, 0u);
}

// With no ceiling (the default) a held snapshot is never evicted: chains
// grow unboundedly but the pin is honored — the pre-PR contract.
TEST(MvccSnapshotEviction, NoCeilingNeverEvicts) {
  constexpr uint32_t kPayload = 64;
  Database db;
  Schema schema({{"v", kPayload, 0}});
  const uint32_t table = db.CreateTable("t", std::move(schema));
  char payload[kPayload] = {};
  db.LoadRow(table, 0, payload);

  SiloLrv cc(&db, 2);
  ASSERT_TRUE(cc.EnableMvcc());
  mv::VersionStore* vs = cc.version_store();
  TxnStats stats[2];
  cc.AttachThread(0, &stats[0]);
  cc.AttachThread(1, &stats[1]);

  char buf[kPayload];
  TxnDescriptor* reader = cc.BeginReadOnly(1);
  ASSERT_TRUE(cc.Read(reader, table, 0, buf).ok());
  for (int i = 0; i < 400; i++) {
    TxnDescriptor* t = cc.Begin(0);
    const uint64_t v = static_cast<uint64_t>(i);
    ASSERT_TRUE(cc.Update(t, table, 0, &v, sizeof(v), 0).ok());
    ASSERT_TRUE(cc.Commit(t).ok());
  }
  EXPECT_EQ(vs->Telemetry().snapshots_evicted, 0u);
  ASSERT_TRUE(cc.Read(reader, table, 0, buf).ok());
  uint64_t got = ~0ULL;
  std::memcpy(&got, buf, sizeof(got));
  EXPECT_EQ(got, 0u);  // still the pre-burst value at the frozen snapshot
  ASSERT_TRUE(cc.Commit(reader).ok());

  vs->GcQuiesce(&db);
  EXPECT_EQ(vs->Telemetry().live_nodes(), 0u);
}

// --------------------------------------------------------------------------
// Prometheus streamer
// --------------------------------------------------------------------------

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(PrometheusStreamer, DrainsRingsIncrementallyAndCountsDrops) {
  obs::ObsOptions oo;
  oo.ring_capacity = 8;
  oo.sample_period = 1;
  oo.max_workers = 2;
  obs::FlightRecorder rec(oo);

  // Worker rings allocate lazily at the first transaction.
  rec.BeginTxn(0, 100, 1);
  rec.Emit(0, obs::EventType::kVersionGc, 0, 120, 0, /*nodes=*/5, 0);
  rec.EmitService(obs::EventType::kWalFlush, 0, 100, 10, /*bytes=*/4096, 1);
  rec.EmitService(obs::EventType::kSnapshotEvict, 0, 110, 0, /*ts=*/2, 0);

  const std::string path =
      std::string(::testing::TempDir()) + "/rocc_prom_stream_test.prom";
  obs::PrometheusStreamer::Options so;
  so.path = path;
  so.labels = "test=\"streamer\"";
  obs::PrometheusStreamer streamer(so, &rec);

  ASSERT_TRUE(streamer.CollectOnce());
  obs::StreamCounters c = streamer.counters();
  EXPECT_EQ(c.wal_flushes, 1u);
  EXPECT_EQ(c.wal_flush_bytes, 4096u);
  EXPECT_EQ(c.snapshot_evictions, 1u);
  EXPECT_EQ(c.version_gc_passes, 1u);
  EXPECT_EQ(c.version_gc_nodes, 5u);
  EXPECT_EQ(c.events_dropped, 0u);

  // Incremental: a second collection only folds in the new events.
  rec.EmitService(obs::EventType::kWalFlush, 0, 200, 5, 1000, 2);
  ASSERT_TRUE(streamer.CollectOnce());
  c = streamer.counters();
  EXPECT_EQ(c.wal_flushes, 2u);
  EXPECT_EQ(c.wal_flush_bytes, 5096u);
  EXPECT_EQ(c.snapshot_evictions, 1u);

  // Stats snapshot and mv gauges are embedded in the rewrite.
  TxnStats stats;
  stats.commits = 7;
  streamer.UpdateStats(stats);
  streamer.SetMvGaugeSource([] {
    obs::MvGauges g;
    g.live_nodes = 3;
    g.live_bytes = 96;
    return g;
  });
  ASSERT_TRUE(streamer.CollectOnce());
  const std::string text = ReadFileOrEmpty(path);
  EXPECT_NE(text.find("rocc_txn_commits_total{test=\"streamer\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("rocc_stream_wal_flushes_total{test=\"streamer\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rocc_mv_live_versions{test=\"streamer\"} 3"),
            std::string::npos);

  // Overrun between collections: a capacity-8 ring fed 20 events keeps the
  // newest 8; the other 12 must be counted as dropped, not silently lost.
  for (int i = 0; i < 20; i++) {
    rec.EmitService(obs::EventType::kSnapshotEvict, 0, 300 + i, 0, 1, 0);
  }
  ASSERT_TRUE(streamer.CollectOnce());
  c = streamer.counters();
  EXPECT_EQ(c.snapshot_evictions, 1u + 8u);
  EXPECT_EQ(c.events_dropped, 12u);
  std::remove(path.c_str());
}

// Sampled per-txn mv counters also reach the streamer via worker rings.
TEST(PrometheusStreamer, AccountsSampledMvEvents) {
  obs::ObsOptions oo;
  oo.ring_capacity = 64;
  oo.sample_period = 1;
  oo.max_workers = 2;
  obs::FlightRecorder rec(oo);
  rec.BeginTxn(0, 100, 1);
  rec.Emit(0, obs::EventType::kVersionInstall, 0, 110, 0, /*nodes=*/2, 0);
  rec.Emit(0, obs::EventType::kSnapshotScan, 0, 120, 40, /*records=*/100,
           /*chain_reads=*/7);

  const std::string path =
      std::string(::testing::TempDir()) + "/rocc_prom_stream_mv.prom";
  obs::PrometheusStreamer streamer({path, "", 1000}, &rec);
  ASSERT_TRUE(streamer.CollectOnce());
  const obs::StreamCounters c = streamer.counters();
  EXPECT_EQ(c.version_installs, 1u);
  EXPECT_EQ(c.version_nodes, 2u);
  EXPECT_EQ(c.snapshot_scans, 1u);
  EXPECT_EQ(c.snapshot_records, 100u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rocc
