// White-box tests of the static RangeManager (paper §III-A): RangeConfig
// validation and the equal-width layout's boundaries — keys below key_min /
// at key_max, last-range extension, non-divisible spans — plus the per-range
// telemetry snapshot behind /vars.

#include <gtest/gtest.h>

#include "core/range_manager.h"
#include "core/rocc.h"

namespace rocc {
namespace {

/// The partition invariant: ranges are ascending and contiguous from key_min
/// to key_max, and every key maps into the one range whose
/// [RangeStart, RangeEnd) contains it.
void CheckPartition(const RangeManager& rm) {
  ASSERT_GT(rm.num_ranges(), 0u);
  EXPECT_EQ(rm.RangeStart(0), rm.key_min());
  for (uint32_t i = 0; i + 1 < rm.num_ranges(); i++) {
    EXPECT_EQ(rm.RangeEnd(i), rm.RangeStart(i + 1))
        << "gap/overlap after range " << i;
    EXPECT_LT(rm.RangeStart(i), rm.RangeEnd(i)) << "empty range " << i;
  }
  EXPECT_EQ(rm.RangeEnd(rm.num_ranges() - 1), rm.key_max());
  for (uint64_t k = rm.key_min(); k < rm.key_max(); k++) {
    const uint32_t rid = rm.RangeOf(k);
    ASSERT_LT(rid, rm.num_ranges());
    EXPECT_LE(rm.RangeStart(rid), k) << "key " << k;
    EXPECT_LT(k, rm.RangeEnd(rid)) << "key " << k;
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
}

TEST(RangeManagerTest, TelemetrySnapshotsCountersAndTopology) {
  RangeManager rm(0, 500, 10, 64);
  rm.stats(4).registrations.fetch_add(7);
  rm.stats(4).ring_lost.fetch_add(2);
  rm.stats(1).registrations.fetch_add(3);

  const RangeTelemetry tel = rm.Telemetry(/*top_n=*/4);
  EXPECT_EQ(tel.num_ranges, 10u);
  EXPECT_EQ(tel.total_registrations, 10u);
  ASSERT_EQ(tel.rows.size(), 4u);  // truncated to top_n
  EXPECT_EQ(tel.rows[0].range_id, 4u);  // hottest first
  EXPECT_EQ(tel.rows[0].start_key, 200u);
  EXPECT_EQ(tel.rows[0].end_key, 250u);
  EXPECT_EQ(tel.rows[0].registrations, 7u);
  EXPECT_EQ(tel.rows[0].ring_lost, 2u);
  EXPECT_EQ(tel.rows[0].ring_capacity, 64u);
  EXPECT_EQ(tel.rows[1].range_id, 1u);
}

}  // namespace
}  // namespace rocc
