// White-box tests of the adaptive RangeManager (DESIGN.md §10): RangeConfig
// validation, static-layout boundary compatibility (keys below key_min / at
// key_max, last-range extension, non-divisible spans), the slice grid, and
// the split/merge invariants — every key maps to exactly one range before,
// during, and after a table swap, and retired tables are reclaimed only
// after their grace period. Plus an end-to-end run on the deterministic
// fiber runner where the grid is frozen and the tuner's only lever is
// adaptive ring capacity (DESIGN.md §15.2), forcing mid-scan ring
// replacements under live predicates.

#include <gtest/gtest.h>

#include <memory>

#include "core/range_manager.h"
#include "core/rocc.h"
#include "harness/runner.h"
#include "workload/ycsb.h"

namespace rocc {
namespace {

/// The partition invariant: ranges are ascending and contiguous from key_min
/// to key_max, and every key maps (via the slice grid) into the one range
/// whose [start_key, end_key) contains it.
void CheckPartition(const RangeManager& rm) {
  const RangeTable* t = rm.Snapshot();
  ASSERT_GT(t->num_ranges(), 0u);
  EXPECT_EQ(t->range(0)->start_key, rm.key_min());
  for (uint32_t i = 0; i + 1 < t->num_ranges(); i++) {
    EXPECT_EQ(t->range(i)->end_key, t->range(i + 1)->start_key)
        << "gap/overlap after range " << i;
    EXPECT_LT(t->range(i)->start_key, t->range(i)->end_key)
        << "empty range " << i;
  }
  EXPECT_EQ(t->range(t->num_ranges() - 1)->end_key, rm.key_max());
  for (uint64_t k = rm.key_min(); k < rm.key_max(); k++) {
    const uint32_t rid = t->slice_to_range[rm.SliceOf(k)];
    ASSERT_LT(rid, t->num_ranges());
    EXPECT_LE(t->range(rid)->start_key, k) << "key " << k;
    EXPECT_LT(k, t->range(rid)->end_key) << "key " << k;
  }
}

TEST(ValidateRangeConfigTest, RejectsEmptyKeySpace) {
  RangeConfig rc;
  rc.key_min = 100;
  rc.key_max = 100;
  EXPECT_FALSE(ValidateRangeConfig(rc).ok());
  rc.key_max = 99;
  EXPECT_FALSE(ValidateRangeConfig(rc).ok());
}

TEST(ValidateRangeConfigTest, RejectsZeroRingCapacity) {
  RangeConfig rc;
  rc.ring_capacity = 0;
  EXPECT_FALSE(ValidateRangeConfig(rc).ok());
}

TEST(ValidateRangeConfigTest, AcceptsDefaultsAndZeroRanges) {
  RangeConfig rc;
  EXPECT_TRUE(ValidateRangeConfig(rc).ok());
  rc.num_ranges = 0;  // legal: treated as one range
  EXPECT_TRUE(ValidateRangeConfig(rc).ok());
}

TEST(RangeManagerTest, StaticLayoutBoundariesMatchSeed) {
  RangeManager rm(0, 500, 10, 64);
  EXPECT_EQ(rm.num_ranges(), 10u);
  EXPECT_EQ(rm.range_size(), 50u);
  for (uint32_t i = 0; i < 10; i++) {
    EXPECT_EQ(rm.RangeStart(i), i * 50u);
    EXPECT_EQ(rm.RangeEnd(i), (i + 1) * 50u);
  }
  EXPECT_EQ(rm.RangeOf(0), 0u);
  EXPECT_EQ(rm.RangeOf(49), 0u);
  EXPECT_EQ(rm.RangeOf(50), 1u);
  EXPECT_EQ(rm.RangeOf(499), 9u);
  CheckPartition(rm);
}

TEST(RangeManagerTest, OutOfSpanKeysClampToEdgeRanges) {
  RangeManager rm(100, 600, 10, 64);
  EXPECT_EQ(rm.RangeOf(0), 0u);     // below key_min
  EXPECT_EQ(rm.RangeOf(100), 0u);   // at key_min
  EXPECT_EQ(rm.RangeOf(600), 9u);   // at key_max (exclusive bound)
  EXPECT_EQ(rm.RangeOf(~0ULL), 9u); // far past key_max
}

TEST(RangeManagerTest, NonDivisibleSpanExtendsLastRange) {
  // span 100 over 7 ranges: range_size = ceil(100/7) = 15, so ranges 0..5
  // are 15 keys and the last range holds the remaining 10.
  RangeManager rm(0, 100, 7, 64);
  EXPECT_EQ(rm.range_size(), 15u);
  EXPECT_EQ(rm.RangeStart(6), 90u);
  EXPECT_EQ(rm.RangeEnd(6), 100u);
  CheckPartition(rm);

  // span smaller than num_ranges * range_size with a sliced grid.
  RangeManager rm2(0, 100, 7, 64, /*slices_per_range=*/8);
  EXPECT_EQ(rm2.RangeStart(6), 90u);
  EXPECT_EQ(rm2.RangeEnd(6), 100u);
  CheckPartition(rm2);
}

TEST(RangeManagerTest, SliceGridPreservesInitialBoundaries) {
  RangeManager rm(0, 500, 10, 64, /*slices_per_range=*/8);
  EXPECT_EQ(rm.slices_per_range(), 8u);
  EXPECT_EQ(rm.num_slices(), 80u);
  // Range boundaries are bit-exact with the unsliced layout.
  for (uint32_t i = 0; i < 10; i++) {
    EXPECT_EQ(rm.RangeStart(i), i * 50u);
    EXPECT_EQ(rm.RangeEnd(i), (i + 1) * 50u);
    EXPECT_EQ(rm.SliceBound(i * 8), i * 50u);
  }
  EXPECT_EQ(rm.SliceBound(rm.num_slices()), 500u);
  // SliceOf is consistent with SliceBound: SliceBound(s) <= k < SliceBound(s+1).
  for (uint64_t k = 0; k < 500; k++) {
    const uint32_t s = rm.SliceOf(k);
    EXPECT_LE(rm.SliceBound(s), k);
    EXPECT_LT(k, rm.SliceBound(s + 1));
  }
  CheckPartition(rm);
}

TEST(RangeManagerTest, SliceWidthClampedToAtLeastOneKey) {
  // 4-key ranges cannot hold 8 one-key slices: spr clamps to the range size.
  RangeManager rm(0, 40, 10, 64, /*slices_per_range=*/8);
  EXPECT_LE(rm.slices_per_range(), 4u);
  CheckPartition(rm);
}

TEST(RangeManagerTest, SplitPublishesNewTableAndKeepsPartition) {
  RangeManager rm(0, 500, 10, 64, 8);
  const RangeTable* before = rm.Snapshot();
  const LogicalRange* parent = before->range(3);
  TxnRing* parent_ring = parent->ring.get();

  ASSERT_TRUE(rm.Split(3, 4, /*publish_epoch=*/5));
  const RangeTable* after = rm.Snapshot();
  EXPECT_NE(after, before);
  EXPECT_EQ(after->version, 1u);
  EXPECT_EQ(rm.table_version(), 1u);
  EXPECT_EQ(rm.splits(), 1u);
  EXPECT_EQ(after->num_ranges(), 13u);  // 10 - 1 + 4

  // The children cover exactly the parent's span, carry fresh rings, and
  // fence the parent's ring as their single predecessor.
  EXPECT_EQ(after->range(3)->start_key, 150u);
  EXPECT_EQ(after->range(6)->end_key, 200u);
  for (uint32_t rid = 3; rid <= 6; rid++) {
    const LogicalRange* child = after->range(rid);
    EXPECT_NE(child->ring.get(), parent_ring);
    EXPECT_EQ(child->ring->Version(), 0u);
    ASSERT_EQ(child->prev_rings.size(), 1u);
    EXPECT_EQ(child->prev_rings[0].get(), parent_ring);
    EXPECT_EQ(child->created_epoch, 5u);
  }
  // Carried ranges keep their identity (same LogicalRange, same ring).
  EXPECT_EQ(after->range(0), before->range(0));
  EXPECT_EQ(after->range(12), before->range(9));
  CheckPartition(rm);

  // The old table is retired, not freed, until the grace period elapses.
  EXPECT_EQ(rm.retired_tables(), 1u);
  rm.ReclaimRetired(/*min_active=*/5);  // epoch 5 not yet past
  EXPECT_EQ(rm.retired_tables(), 1u);
  rm.ReclaimRetired(/*min_active=*/6);
  EXPECT_EQ(rm.retired_tables(), 0u);
}

TEST(RangeManagerTest, SplitOfSingleSliceRangeFails) {
  RangeManager rm(0, 500, 10, 64);  // spr = 1: the grid cannot refine
  EXPECT_FALSE(rm.Split(3, 4, 1));
  EXPECT_EQ(rm.table_version(), 0u);
  EXPECT_EQ(rm.splits(), 0u);
}

TEST(RangeManagerTest, SplitSkipsEmptySlices) {
  // 5-key ranges with an 8-slice grid: slice width 1, slices 5..7 empty.
  // A 4-way split must produce only non-empty children.
  RangeManager rm(0, 10, 2, 64, 8);
  ASSERT_TRUE(rm.Split(0, 4, 1));
  const RangeTable* t = rm.Snapshot();
  ASSERT_GE(t->num_ranges(), 3u);
  for (uint32_t i = 0; i < t->num_ranges(); i++) {
    EXPECT_LT(t->range(i)->start_key, t->range(i)->end_key);
  }
  CheckPartition(rm);
}

TEST(RangeManagerTest, MergeCoalescesAdjacentRangesWithPrevFences) {
  RangeManager rm(0, 500, 10, 64, 8);
  ASSERT_TRUE(rm.Split(3, 2, 1));
  const RangeTable* mid = rm.Snapshot();
  ASSERT_EQ(mid->num_ranges(), 11u);
  TxnRing* left_ring = mid->range(3)->ring.get();
  TxnRing* right_ring = mid->range(4)->ring.get();

  ASSERT_TRUE(rm.Merge(3, 2, /*publish_epoch=*/2));
  const RangeTable* after = rm.Snapshot();
  EXPECT_EQ(after->num_ranges(), 10u);
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(rm.merges(), 1u);
  const LogicalRange* merged = after->range(3);
  EXPECT_EQ(merged->start_key, 150u);
  EXPECT_EQ(merged->end_key, 200u);
  EXPECT_EQ(merged->ring->Version(), 0u);
  ASSERT_EQ(merged->prev_rings.size(), 2u);
  EXPECT_EQ(merged->prev_rings[0].get(), left_ring);
  EXPECT_EQ(merged->prev_rings[1].get(), right_ring);
  EXPECT_EQ(merged->created_epoch, 2u);
  CheckPartition(rm);
}

TEST(RangeManagerTest, MergeFanInBoundedByPredicateCapacity) {
  RangeManager rm(0, 800, 8, 64, 8);
  EXPECT_FALSE(rm.Merge(0, RangePredicate::kMaxPrevRings + 1, 1));
  EXPECT_FALSE(rm.Merge(0, 1, 1));
  EXPECT_FALSE(rm.Merge(7, 2, 1));  // out of bounds
  EXPECT_TRUE(rm.Merge(0, RangePredicate::kMaxPrevRings, 1));
  CheckPartition(rm);
}

TEST(RangeManagerTest, RepeatedSplitsKeepPartitionUntilGridExhausted) {
  RangeManager rm(0, 200, 2, 64, 8);
  uint64_t epoch = 1;
  // Keep splitting range 0's descendants until nothing is splittable.
  bool split = true;
  while (split) {
    split = false;
    const uint32_t n = rm.num_ranges();
    for (uint32_t rid = 0; rid < n; rid++) {
      if (rm.Split(rid, 2, epoch++)) {
        split = true;
        break;
      }
    }
    CheckPartition(rm);
  }
  // Fully refined: one range per non-empty slice.
  EXPECT_EQ(rm.num_ranges(), rm.num_slices());
  rm.ReclaimRetired(~0ULL);
  EXPECT_EQ(rm.retired_tables(), 0u);
}

TEST(RangeManagerTest, TelemetrySnapshotsCountersAndTopology) {
  RangeManager rm(0, 500, 10, 64, 8);
  rm.Snapshot()->range(4)->stats.registrations.fetch_add(7);
  rm.Snapshot()->range(4)->stats.ring_lost.fetch_add(2);
  rm.Snapshot()->range(1)->stats.registrations.fetch_add(3);
  ASSERT_TRUE(rm.Split(9, 2, 1));

  const RangeTelemetry tel = rm.Telemetry(/*top_n=*/4);
  EXPECT_EQ(tel.num_ranges, 11u);
  EXPECT_EQ(tel.table_version, 1u);
  EXPECT_EQ(tel.splits, 1u);
  EXPECT_EQ(tel.merges, 0u);
  EXPECT_EQ(tel.total_registrations, 10u);
  ASSERT_EQ(tel.rows.size(), 4u);  // truncated to top_n
  EXPECT_EQ(tel.rows[0].range_id, 4u);  // hottest first
  EXPECT_EQ(tel.rows[0].registrations, 7u);
  EXPECT_EQ(tel.rows[0].ring_lost, 2u);
  EXPECT_EQ(tel.rows[1].range_id, 1u);
}

// --------------------------------------------------------------------------
// Adaptive ring capacity end-to-end (mid-scan resizes under live predicates)
// --------------------------------------------------------------------------

/// High-skew hybrid YCSB on tiny rings with the key-space grid FROZEN
/// (slices_per_range=1): splitting is impossible, so relieving the ring_lost
/// pressure requires the tuner to replace hot rings mid-run, while scans
/// hold predicates built against the retired generation.
RunResult RunFrozenGridYcsb(ExecMode mode, uint32_t num_threads,
                            uint64_t txns_per_thread, Rocc** cc_out,
                            std::unique_ptr<Rocc>* cc_holder,
                            std::unique_ptr<Database>* db_holder,
                            std::unique_ptr<YcsbWorkload>* wl_holder) {
  YcsbOptions wopts;
  wopts.num_rows = 20'000;
  wopts.theta = 0.95;
  wopts.scan_txn_fraction = 0.2;
  wopts.scan_length = 200;
  *db_holder = std::make_unique<Database>();
  *wl_holder = std::make_unique<YcsbWorkload>(wopts);
  (*wl_holder)->Load(db_holder->get());

  RoccOptions ropts;
  ropts.tables = (*wl_holder)->RangeConfigs(/*ranges_hint=*/32,
                                            /*ring_capacity=*/16);
  ropts.default_ring_capacity = 16;
  ropts.tuner.enabled = true;
  ropts.tuner.pressure_threshold = 4;
  ropts.tuner.slices_per_range = 1;  // frozen: Split/Merge can never fire
  ropts.tuner.adaptive_ring = true;
  *cc_holder = std::make_unique<Rocc>(db_holder->get(), num_threads, ropts);
  *cc_out = cc_holder->get();

  RunOptions run;
  run.num_threads = num_threads;
  run.txns_per_thread = txns_per_thread;
  run.warmup_txns_per_thread = 10;
  run.seed = 7;
  run.mode = mode;
  return RunExperiment(cc_holder->get(), wl_holder->get(), run);
}

TEST(ResizeEndToEndTest, FiberRunGrowsHotRingsMidScan) {
  Rocc* cc = nullptr;
  std::unique_ptr<Rocc> cc_holder;
  std::unique_ptr<Database> db;
  std::unique_ptr<YcsbWorkload> wl;
  const RunResult r = RunFrozenGridYcsb(ExecMode::kFibers, 16, 150, &cc,
                                        &cc_holder, &db, &wl);

  EXPECT_EQ(r.stats.give_ups, 0u);
  EXPECT_GT(r.stats.commits, 0u);
  // Every abort attributed: ring replacement mid-scan must not invent an
  // unclassified abort path (the clamped validation window in particular).
  EXPECT_EQ(r.stats.aborts, r.stats.AbortCauseSum());

  // The frozen grid leaves ring capacity as the only lever — and the skewed
  // tiny-ring pressure must have pulled it.
  EXPECT_GT(cc->tuner()->passes(), 0u);
  EXPECT_EQ(cc->tuner()->splits(), 0u);
  EXPECT_EQ(cc->tuner()->merges(), 0u);
  EXPECT_GT(cc->tuner()->resizes(), 0u);

  RangeManager* rm = cc->range_manager(wl->table_id());
  EXPECT_EQ(rm->resizes(), cc->tuner()->resizes());
  EXPECT_EQ(rm->splits(), 0u);
  EXPECT_EQ(rm->num_ranges(), 32u);  // layout untouched by resizes
  CheckPartition(*rm);

  // At least one surviving ring actually grew, and telemetry reports it.
  const RangeTable* t = rm->Snapshot();
  uint32_t grown = 0;
  for (uint32_t rid = 0; rid < t->num_ranges(); rid++) {
    if (t->range(rid)->ring->capacity() > 16) grown++;
  }
  EXPECT_GT(grown, 0u);
  const RangeTelemetry tel = rm->Telemetry();
  EXPECT_EQ(tel.resizes, rm->resizes());
  EXPECT_EQ(tel.splits, 0u);
}

TEST(ResizeEndToEndTest, ThreadRunStaysConsistent) {
  // Real-thread variant for the TSan CI job: resize counts are
  // timing-dependent here, so only the invariants are asserted.
  Rocc* cc = nullptr;
  std::unique_ptr<Rocc> cc_holder;
  std::unique_ptr<Database> db;
  std::unique_ptr<YcsbWorkload> wl;
  const RunResult r = RunFrozenGridYcsb(ExecMode::kThreads, 4, 300, &cc,
                                        &cc_holder, &db, &wl);

  EXPECT_EQ(r.stats.give_ups, 0u);
  EXPECT_GT(r.stats.commits, 0u);
  EXPECT_EQ(r.stats.aborts, r.stats.AbortCauseSum());
  EXPECT_EQ(cc->tuner()->splits(), 0u);
  CheckPartition(*cc->range_manager(wl->table_id()));
}

}  // namespace
}  // namespace rocc
