#include "core/range_manager.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/obs.h"

namespace rocc {

RangeManager::RangeManager(uint64_t key_min, uint64_t key_max, uint32_t num_ranges,
                           uint32_t ring_capacity, uint32_t slices_per_range)
    : key_min_(key_min),
      key_max_(key_max),
      init_num_ranges_(num_ranges == 0 ? 1 : num_ranges),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {
  const uint64_t span = key_max_ > key_min_ ? key_max_ - key_min_ : 1;
  range_size_ = (span + init_num_ranges_ - 1) / init_num_ranges_;
  if (range_size_ == 0) range_size_ = 1;

  // Bound the grid so huge num_ranges configs don't blow up slice_to_range.
  constexpr uint32_t kMaxSlices = 1u << 22;
  uint64_t spr = slices_per_range == 0 ? 1 : slices_per_range;
  spr = std::min<uint64_t>(spr, range_size_);  // a slice is at least one key
  spr = std::min<uint64_t>(spr, std::max<uint64_t>(1, kMaxSlices / init_num_ranges_));
  slices_per_range_ = static_cast<uint32_t>(std::max<uint64_t>(spr, 1));
  slice_width_ = (range_size_ + slices_per_range_ - 1) / slices_per_range_;
  num_slices_ = init_num_ranges_ * slices_per_range_;

  // Initial table: range i owns slices [i*spr, (i+1)*spr) — boundaries are
  // bit-exact with the static equal-width layout.
  auto* table = new RangeTable();
  table->version = 0;
  table->ranges.reserve(init_num_ranges_);
  table->slice_to_range.resize(num_slices_);
  for (uint32_t i = 0; i < init_num_ranges_; i++) {
    const uint32_t first = i * slices_per_range_;
    const uint64_t start = key_min_ + i * range_size_;
    const uint64_t end =
        i + 1 == init_num_ranges_ ? key_max_ : key_min_ + (i + 1) * range_size_;
    table->ranges.push_back(std::make_shared<LogicalRange>(
        start, end, first, slices_per_range_, ring_capacity_));
    for (uint32_t s = first; s < first + slices_per_range_; s++) {
      table->slice_to_range[s] = i;
    }
  }
  current_.store(table, std::memory_order_release);
}

RangeManager::~RangeManager() {
  retired_.Reclaim(~0ULL, [](RangeTable* t) { delete t; });
  delete current_.load(std::memory_order_acquire);
}

void RangeManager::Publish(RangeTable* next, uint64_t publish_epoch) {
  RangeTable* old = current_.load(std::memory_order_relaxed);
  next->version = old->version + 1;
  // Rebuild the slice map from the (ascending, contiguous) range list.
  next->slice_to_range.assign(num_slices_, 0);
  for (uint32_t rid = 0; rid < next->num_ranges(); rid++) {
    const LogicalRange* lr = next->range(rid);
    for (uint32_t s = lr->first_slice; s < lr->first_slice + lr->num_slices; s++) {
      next->slice_to_range[s] = rid;
    }
  }
  current_.store(next, std::memory_order_release);
  retired_.Retire(old, publish_epoch);
  obs::ServiceEvent(obs::EventType::kRangePublish, 0, NowNanos(), 0,
                    next->version, next->num_ranges());
}

bool RangeManager::Split(uint32_t range_id, uint32_t children,
                         uint64_t publish_epoch) {
  const RangeTable* cur = current_.load(std::memory_order_relaxed);
  if (range_id >= cur->num_ranges()) return false;
  const std::shared_ptr<LogicalRange>& victim = cur->ranges[range_id];
  if (victim->num_slices < 2) return false;
  children = std::min(children, victim->num_slices);
  if (children < 2) return false;

  // Slice-balanced cut points, with cuts that land on an empty slice span
  // collapsed away (non-divisible ranges have empty tail slices).
  std::vector<uint32_t> cuts;
  cuts.push_back(victim->first_slice);
  const uint32_t base = victim->num_slices / children;
  const uint32_t rem = victim->num_slices % children;
  uint32_t at = victim->first_slice;
  for (uint32_t c = 0; c < children; c++) {
    at += base + (c < rem ? 1 : 0);
    if (SliceBound(at) > SliceBound(cuts.back())) cuts.push_back(at);
  }
  if (cuts.back() != victim->first_slice + victim->num_slices) {
    cuts.back() = victim->first_slice + victim->num_slices;
  }
  if (cuts.size() < 3) return false;  // fewer than 2 non-empty children

  auto* next = new RangeTable();
  next->ranges.reserve(cur->ranges.size() + cuts.size() - 2);
  for (uint32_t rid = 0; rid < cur->num_ranges(); rid++) {
    if (rid != range_id) {
      next->ranges.push_back(cur->ranges[rid]);  // carried: same ring & stats
      continue;
    }
    for (size_t c = 0; c + 1 < cuts.size(); c++) {
      const uint32_t first = cuts[c];
      const uint32_t count = cuts[c + 1] - first;
      const uint64_t start = SliceBound(first);
      // The parent's end (not the raw grid bound) so the last child of the
      // last range keeps the extension to key_max.
      const uint64_t end =
          cuts[c + 1] == victim->first_slice + victim->num_slices
              ? victim->end_key
              : SliceBound(cuts[c + 1]);
      auto child =
          std::make_shared<LogicalRange>(start, end, first, count, ring_capacity_);
      child->prev_rings.push_back(victim->ring);
      child->created_epoch = publish_epoch;
      next->ranges.push_back(std::move(child));
    }
  }
  Publish(next, publish_epoch);
  splits_++;
  obs::ServiceEvent(obs::EventType::kRangeSplit, 0, NowNanos(), 0, range_id,
                    static_cast<uint32_t>(cuts.size() - 1));
  return true;
}

bool RangeManager::Merge(uint32_t first_range_id, uint32_t count,
                         uint64_t publish_epoch) {
  static_assert(RangePredicate::kMaxPrevRings >= 2,
                "merge fan-in must fit predicate prev snapshots");
  const RangeTable* cur = current_.load(std::memory_order_relaxed);
  if (count < 2 || count > RangePredicate::kMaxPrevRings) return false;
  if (first_range_id + count > cur->num_ranges()) return false;

  const LogicalRange* lo = cur->range(first_range_id);
  const LogicalRange* hi = cur->range(first_range_id + count - 1);
  auto merged = std::make_shared<LogicalRange>(
      lo->start_key, hi->end_key, lo->first_slice,
      hi->first_slice + hi->num_slices - lo->first_slice, ring_capacity_);
  for (uint32_t rid = first_range_id; rid < first_range_id + count; rid++) {
    merged->prev_rings.push_back(cur->ranges[rid]->ring);
  }
  merged->created_epoch = publish_epoch;

  auto* next = new RangeTable();
  next->ranges.reserve(cur->ranges.size() - count + 1);
  for (uint32_t rid = 0; rid < cur->num_ranges(); rid++) {
    if (rid == first_range_id) next->ranges.push_back(merged);
    if (rid < first_range_id || rid >= first_range_id + count) {
      next->ranges.push_back(cur->ranges[rid]);
    }
  }
  Publish(next, publish_epoch);
  merges_++;
  obs::ServiceEvent(obs::EventType::kRangeMerge, 0, NowNanos(), 0,
                    first_range_id, count);
  return true;
}

bool RangeManager::Resize(uint32_t range_id, uint32_t new_capacity,
                          uint64_t publish_epoch) {
  const RangeTable* cur = current_.load(std::memory_order_relaxed);
  if (range_id >= cur->num_ranges() || new_capacity == 0) return false;
  const std::shared_ptr<LogicalRange>& victim = cur->ranges[range_id];
  if (new_capacity == victim->ring->capacity()) return false;

  // Replacement range: same identity (span, slices), fresh ring seeded at
  // the retired ring's version so the range version keeps advancing
  // monotonically across the swap. The retired ring is fenced exactly like a
  // split parent's: predicates built after the publish snapshot it via
  // prev_rings, predicates built before it hold it as their primary ring,
  // and the grace gate (caller obligation) guarantees no live transaction
  // still references the grandparent generation.
  auto repl = std::make_shared<LogicalRange>(
      victim->start_key, victim->end_key, victim->first_slice,
      victim->num_slices, new_capacity, victim->ring->Version());
  repl->prev_rings.push_back(victim->ring);
  repl->created_epoch = publish_epoch;

  // Carry counters and tuner baselines so telemetry stays monotone per key
  // span and the tuner's deltas stay seamless across the swap; the high
  // water restarts because it measures pressure against the NEW capacity.
  repl->stats.registrations.store(
      victim->stats.registrations.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  repl->stats.ring_lost.store(
      victim->stats.ring_lost.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  repl->stats.scan_conflict.store(
      victim->stats.scan_conflict.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  repl->stats.ring_resizes.store(
      victim->stats.ring_resizes.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  repl->seen_registrations = victim->seen_registrations;
  repl->seen_ring_lost = victim->seen_ring_lost;
  repl->seen_scan_conflict = victim->seen_scan_conflict;
  repl->window_registrations = victim->window_registrations;
  repl->window_aborts = victim->window_aborts;

  auto* next = new RangeTable();
  next->ranges = cur->ranges;
  next->ranges[range_id] = std::move(repl);
  Publish(next, publish_epoch);
  resizes_++;
  obs::ServiceEvent(obs::EventType::kRingResize, 0, NowNanos(), 0, range_id,
                    new_capacity);
  return true;
}

void RangeManager::ReclaimRetired(uint64_t min_active) {
  retired_.Reclaim(min_active, [](RangeTable* t) { delete t; });
}

RangeTelemetry RangeManager::Telemetry(size_t top_n) const {
  RangeTelemetry out;
  const RangeTable* cur = Snapshot();
  out.table_version = cur->version;
  out.num_ranges = cur->num_ranges();
  out.splits = splits_;
  out.merges = merges_;
  out.resizes = resizes_;
  out.rows.reserve(cur->num_ranges());
  for (uint32_t rid = 0; rid < cur->num_ranges(); rid++) {
    const LogicalRange* lr = cur->range(rid);
    RangeTelemetry::Row row;
    row.range_id = rid;
    row.start_key = lr->start_key;
    row.end_key = lr->end_key;
    row.num_slices = lr->num_slices;
    row.ring_version = lr->ring->Version();
    row.prev_rings = static_cast<uint32_t>(lr->prev_rings.size());
    row.registrations = lr->stats.registrations.load(std::memory_order_relaxed);
    row.ring_lost = lr->stats.ring_lost.load(std::memory_order_relaxed);
    row.scan_conflict = lr->stats.scan_conflict.load(std::memory_order_relaxed);
    row.ring_capacity = lr->ring->capacity();
    row.ring_high_water = lr->stats.ring_high_water.load(std::memory_order_relaxed);
    row.ring_resizes = lr->stats.ring_resizes.load(std::memory_order_relaxed);
    for (size_t c = 0; c < kNumAbortCauses; c++) {
      row.abort_by_reason[c] =
          lr->stats.abort_by_reason[c].load(std::memory_order_relaxed);
    }
    out.total_registrations += row.registrations;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const RangeTelemetry::Row& a, const RangeTelemetry::Row& b) {
              if (a.registrations != b.registrations) {
                return a.registrations > b.registrations;
              }
              return a.range_id < b.range_id;
            });
  if (out.rows.size() > top_n) out.rows.resize(top_n);
  return out;
}

}  // namespace rocc
