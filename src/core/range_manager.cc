#include "core/range_manager.h"

#include <algorithm>

namespace rocc {

RangeManager::RangeManager(uint64_t key_min, uint64_t key_max, uint32_t num_ranges,
                           uint32_t ring_capacity)
    : key_min_(key_min),
      key_max_(key_max),
      num_ranges_(num_ranges == 0 ? 1 : num_ranges) {
  const uint64_t span = key_max_ > key_min_ ? key_max_ - key_min_ : 1;
  range_size_ = (span + num_ranges_ - 1) / num_ranges_;
  if (range_size_ == 0) range_size_ = 1;
  ranges_.reserve(num_ranges_);
  for (uint32_t i = 0; i < num_ranges_; i++) {
    ranges_.push_back(std::make_unique<Range>(ring_capacity));
  }
}

RangeTelemetry RangeManager::Telemetry(size_t top_n) const {
  RangeTelemetry out;
  out.num_ranges = num_ranges_;
  out.rows.reserve(num_ranges_);
  for (uint32_t rid = 0; rid < num_ranges_; rid++) {
    const Range& r = *ranges_[rid];
    RangeTelemetry::Row row;
    row.range_id = rid;
    row.start_key = RangeStart(rid);
    row.end_key = RangeEnd(rid);
    row.registrations = r.stats.registrations.load(std::memory_order_relaxed);
    row.ring_lost = r.stats.ring_lost.load(std::memory_order_relaxed);
    row.scan_conflict = r.stats.scan_conflict.load(std::memory_order_relaxed);
    row.ring_capacity = r.ring.capacity();
    for (size_t c = 0; c < kNumAbortCauses; c++) {
      row.abort_by_reason[c] =
          r.stats.abort_by_reason[c].load(std::memory_order_relaxed);
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
