#include "core/range_tuner.h"

#include <algorithm>

#include "harness/knobs.h"
#include "txn/txn.h"

namespace rocc {

namespace {

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

RangeTuner::RangeTuner(const std::vector<std::unique_ptr<RangeManager>>* managers,
                       EpochManager* epoch, RangeTunerOptions opts)
    : managers_(managers), epoch_(epoch), opts_(opts) {
  opts_.max_children = std::max<uint32_t>(2, opts_.max_children);
  opts_.max_children =
      std::min<uint32_t>(opts_.max_children, RangePredicate::kMaxPrevRings);
  if (opts_.pressure_threshold == 0) opts_.pressure_threshold = 1;
  if (opts_.max_ranges_factor == 0) opts_.max_ranges_factor = 1;
  pressure_knob_ = KnobRegistry::Instance().Register("tuner_pressure_threshold",
                                                     opts_.pressure_threshold);
  split_score_knob_ = KnobRegistry::Instance().Register("tuner_min_split_score",
                                                        opts_.min_split_score);
}

bool RangeTuner::MaybeTune() {
  // A reload setting the threshold to 0 must not melt into a pass-per-commit
  // storm: clamp to 1, same as the constructor does for the config field.
  const uint64_t threshold = std::max<uint64_t>(
      1, pressure_knob_->load(std::memory_order_relaxed));
  if (pressure_.load(std::memory_order_relaxed) < threshold) {
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;  // someone else is tuning
  if (pressure_.load(std::memory_order_relaxed) < threshold) {
    return false;  // raced: a pass just consumed the pressure
  }
  pressure_.store(0, std::memory_order_relaxed);
  return RunPass(split_score_knob_->load(std::memory_order_relaxed));
}

bool RangeTuner::ForceTune() {
  std::lock_guard<std::mutex> lock(mu_);
  pressure_.store(0, std::memory_order_relaxed);
  return RunPass(/*min_score=*/1);
}

std::vector<RangeTelemetry> RangeTuner::TelemetryLocked(size_t top_n) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RangeTelemetry> out;
  out.reserve(managers_->size());
  for (const auto& rm : *managers_) {
    if (rm != nullptr) out.push_back(rm->Telemetry(top_n));
  }
  return out;
}

bool RangeTuner::RunPass(uint64_t min_score) {
  passes_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t min_active = epoch_->MinActive();
  const uint64_t publish_epoch = epoch_->Current();
  bool acted = false;
  if (merge_eval_accum_.size() < managers_->size()) {
    merge_eval_accum_.resize(managers_->size(), 0);
  }

  for (size_t mi = 0; mi < managers_->size(); mi++) {
    RangeManager* rm = (*managers_)[mi].get();
    if (rm == nullptr) continue;
    rm->ReclaimRetired(min_active);
    const RangeTable* cur = rm->Snapshot();
    const uint32_t n = cur->num_ranges();
    const uint32_t max_ranges = rm->init_num_ranges() * opts_.max_ranges_factor;

    // Per-range contention deltas since the previous pass. seen_* baselines
    // live on the (table-shared) LogicalRange and are guarded by mu_.
    // Deltas also accumulate into the per-range merge window, so merge
    // decisions see a fixed amount of traffic no matter how often passes run.
    std::vector<uint64_t> d_reg(n), d_lost(n), d_conf(n);
    for (uint32_t rid = 0; rid < n; rid++) {
      LogicalRange* lr = cur->range(rid);
      const uint64_t reg = lr->stats.registrations.load(std::memory_order_relaxed);
      const uint64_t lost = lr->stats.ring_lost.load(std::memory_order_relaxed);
      const uint64_t conf = lr->stats.scan_conflict.load(std::memory_order_relaxed);
      d_reg[rid] = reg - lr->seen_registrations;
      d_lost[rid] = lost - lr->seen_ring_lost;
      d_conf[rid] = conf - lr->seen_scan_conflict;
      lr->seen_registrations = reg;
      lr->seen_ring_lost = lost;
      lr->seen_scan_conflict = conf;
      lr->window_registrations += d_reg[rid];
      lr->window_aborts += d_lost[rid] + d_conf[rid];
      merge_eval_accum_[mi] += d_reg[rid];
    }

    // Split the hottest eligible range. ring_lost dominates the score: it
    // means the ring itself is the bottleneck, which only a fresh ring plus
    // a narrower key span can fix. Registration volume is a weak tiebreak so
    // sustained write pressure can pre-split before rings wrap.
    int best = -1;
    uint64_t best_score = 0;
    for (uint32_t rid = 0; rid < n; rid++) {
      const LogicalRange* lr = cur->range(rid);
      if (lr->num_slices < 2) continue;              // grid exhausted
      if (min_active <= lr->created_epoch) continue;  // grace not elapsed
      if (n >= max_ranges) break;                     // growth bound
      const uint64_t score = 8 * d_lost[rid] + 2 * d_conf[rid] + d_reg[rid] / 64;
      if (score >= min_score && score > best_score) {
        best_score = score;
        best = static_cast<int>(rid);
      }
    }
    if (best >= 0 &&
        rm->Split(static_cast<uint32_t>(best), opts_.max_children, publish_epoch)) {
      splits_.fetch_add(1, std::memory_order_relaxed);
      acted = true;
      continue;  // table swapped; merge candidates are stale — next pass
    }

    // Adaptive ring growth: ring_lost persisted and no split relieved it
    // this pass (grid exhausted, growth bound, or score under the gate), so
    // attack the ring itself — replace it with one sized past the observed
    // validation high water, and at least doubled. Epoch-published with the
    // same grace gate as Split, so validators in the transition window stay
    // correct for free (DESIGN.md §15.2).
    if (opts_.adaptive_ring) {
      int grow = -1;
      uint64_t grow_lost = 0;
      for (uint32_t rid = 0; rid < n; rid++) {
        LogicalRange* lr = cur->range(rid);
        if (d_lost[rid] == 0 || d_lost[rid] <= grow_lost) continue;
        if (min_active <= lr->created_epoch) continue;  // grace not elapsed
        if (lr->ring->capacity() >= opts_.max_ring_capacity) continue;
        grow = static_cast<int>(rid);
        grow_lost = d_lost[rid];
      }
      if (grow >= 0) {
        LogicalRange* lr = cur->range(grow);
        const uint64_t hw = lr->stats.ring_high_water.load(std::memory_order_relaxed);
        uint64_t want = std::max<uint64_t>(2ull * lr->ring->capacity(),
                                           NextPow2(hw + 1));
        want = std::min<uint64_t>(want, opts_.max_ring_capacity);
        if (want > lr->ring->capacity() &&
            rm->Resize(static_cast<uint32_t>(grow), static_cast<uint32_t>(want),
                       publish_epoch)) {
          resizes_.fetch_add(1, std::memory_order_relaxed);
          acted = true;
          continue;  // table swapped — next pass
        }
      }
    }

    // Merge one adjacent pair of cold split products, but only once enough
    // table-wide traffic accumulated to judge coldness (see
    // merge_eval_registrations). The combined-slice bound keeps merges to
    // re-coalescing refinement, never coarser than the initial layout. Every
    // table publish forces in-flight scans over the touched span onto the
    // conservative cross-table path, so merges must be rare and certain.
    if (merge_eval_accum_[mi] < opts_.merge_eval_registrations) continue;
    merge_eval_accum_[mi] = 0;
    // Adaptive ring shrink, judged over the same traffic window as merges: a
    // grown ring whose window shows zero abort pressure and a high water
    // well under a quarter of capacity halves back toward the configured
    // size, releasing slot memory when skew moves on. At most one per table
    // per pass, and a shrink defers merging (the table just swapped).
    bool resized_cold = false;
    if (opts_.adaptive_ring) {
      for (uint32_t rid = 0; rid < n; rid++) {
        LogicalRange* lr = cur->range(rid);
        if (lr->ring->capacity() <= rm->ring_capacity()) continue;
        if (min_active <= lr->created_epoch) continue;
        if (lr->window_aborts != 0) continue;
        const uint64_t hw = lr->stats.ring_high_water.load(std::memory_order_relaxed);
        if (hw * 4 >= lr->ring->capacity()) continue;
        const uint32_t want =
            std::max<uint32_t>(lr->ring->capacity() / 2, rm->ring_capacity());
        if (want < lr->ring->capacity() &&
            rm->Resize(rid, want, publish_epoch)) {
          resizes_.fetch_add(1, std::memory_order_relaxed);
          acted = true;
          resized_cold = true;
        }
        break;
      }
    }
    if (!resized_cold && n > rm->init_num_ranges()) {
      for (uint32_t rid = 0; rid + 1 < n; rid++) {
        const LogicalRange* a = cur->range(rid);
        const LogicalRange* b = cur->range(rid + 1);
        if (a->num_slices + b->num_slices > rm->slices_per_range()) continue;
        if (min_active <= a->created_epoch || min_active <= b->created_epoch) continue;
        if (a->window_aborts != 0 || b->window_aborts != 0) continue;
        if (a->window_registrations > opts_.merge_idle_registrations) continue;
        if (b->window_registrations > opts_.merge_idle_registrations) continue;
        if (rm->Merge(rid, 2, publish_epoch)) {
          merges_.fetch_add(1, std::memory_order_relaxed);
          acted = true;
        }
        break;  // at most one merge per table per pass
      }
    }
    // Start a fresh window on every range carried into the next evaluation.
    // Re-snapshot: a shrink or merge above just swapped the table, and the
    // replacement range carried the old window values.
    const RangeTable* after = rm->Snapshot();
    for (uint32_t rid = 0; rid < after->num_ranges(); rid++) {
      after->range(rid)->window_registrations = 0;
      after->range(rid)->window_aborts = 0;
    }
  }
  return acted;
}

}  // namespace rocc
