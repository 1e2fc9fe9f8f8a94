#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/range_manager.h"
#include "txn/epoch.h"

namespace rocc {

/// Tuning policy for adaptive range refinement (DESIGN.md §10).
struct RangeTunerOptions {
  bool enabled = false;
  /// Grid refinement under each initial range; 1 disables splitting entirely
  /// (the grid is frozen at construction).
  uint32_t slices_per_range = 8;
  /// Max children per split (2..RangePredicate::kMaxPrevRings).
  uint32_t max_children = 4;
  /// Abort attributions accumulated before a commit-piggybacked pass runs.
  uint32_t pressure_threshold = 64;
  /// Minimum per-pass contention score for a range to be split.
  uint64_t min_split_score = 16;
  /// Table growth bound: at most init_num_ranges * factor logical ranges.
  uint32_t max_ranges_factor = 8;
  /// A range observing at most this many registrations across one merge
  /// evaluation window (and zero abort attributions) counts as cold and may
  /// merge with a cold neighbor.
  uint64_t merge_idle_registrations = 8;
  /// Table-wide registrations that must accumulate between merge
  /// evaluations. Judging coldness per pass is unsound when passes fire
  /// back-to-back (relief storms): every range then shows a near-zero delta
  /// and hot split products get merged straight back, thrashing the table.
  uint64_t merge_eval_registrations = 4096;
  /// Adaptive ring capacity (DESIGN.md §15.2): grow a range's ring when
  /// ring_lost aborts persist and splitting cannot (or did not) relieve
  /// them; shrink it back toward the configured capacity when a merge
  /// window shows no pressure and a low high-water mark.
  bool adaptive_ring = false;
  /// Upper bound for tuner-grown rings (slots).
  uint32_t max_ring_capacity = 1u << 20;
};

/// Telemetry-driven hot-range refinement.
///
/// The tuner is commit-piggybacked: scan-abort attributions bump an atomic
/// pressure counter (NoteAbortPressure), and the first committer to observe
/// the counter past the threshold runs a pass under a try_lock — the hot
/// path never blocks on tuning. A pass reclaims retired tables whose grace
/// period elapsed, computes per-range contention deltas since the previous
/// pass, splits the hottest eligible range into slice-balanced children with
/// fresh rings, and merges one adjacent pair of cold split products so the
/// table shrinks back when skew moves on.
///
/// ForceTune is the contention-relief entry point (ContentionManager relief
/// hook): it blocks on the mutex and relaxes the split score so a bulk scan
/// about to escalate into the protected gate first gets a chance at a
/// structural fix.
///
/// All structural mutation (Split/Merge/ReclaimRetired, seen_* baselines) is
/// serialized by `mu_`; epoch grace (MinActive > created_epoch) gates every
/// structural change so one prev_rings generation provably suffices.
class RangeTuner {
 public:
  RangeTuner(const std::vector<std::unique_ptr<RangeManager>>* managers,
             EpochManager* epoch, RangeTunerOptions opts);

  RangeTuner(const RangeTuner&) = delete;
  RangeTuner& operator=(const RangeTuner&) = delete;

  /// Record `n` scan-abort attributions (ring_lost / scan_conflict).
  void NoteAbortPressure(uint32_t n) {
    pressure_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Commit-piggybacked entry: runs a pass iff pressure crossed the
  /// threshold and the tuner lock is free. Returns true if the pass changed
  /// any table. Must not be called while holding write locks or inside an
  /// epoch the pass would wait on (call after FinishTxn).
  bool MaybeTune();

  /// Blocking entry for contention relief: always runs a pass, with the
  /// split score relaxed to "any contention at all". Returns true if a
  /// table changed (the caller skips escalation for this attempt).
  bool ForceTune();

  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }
  uint64_t resizes() const { return resizes_.load(std::memory_order_relaxed); }
  const RangeTunerOptions& options() const { return opts_; }

  /// Per-table telemetry safe against concurrent structural passes: holds
  /// `mu_` across the reads, so no retired table (or ring) can be reclaimed
  /// and freed mid-read. For the live /vars endpoint, whose server thread
  /// does not participate in the workers' epoch protocol.
  std::vector<RangeTelemetry> TelemetryLocked(size_t top_n);

 private:
  /// One pass over all tables; requires `mu_` held.
  bool RunPass(uint64_t min_score);

  const std::vector<std::unique_ptr<RangeManager>>* managers_;
  EpochManager* epoch_;
  RangeTunerOptions opts_;
  /// Hot-reloadable split policy (knobs "tuner_pressure_threshold" /
  /// "tuner_min_split_score"), read instead of the opts_ fields on the
  /// commit-piggybacked MaybeTune path.
  std::atomic<uint64_t>* pressure_knob_;
  std::atomic<uint64_t>* split_score_knob_;

  std::atomic<uint64_t> pressure_{0};
  std::mutex mu_;
  /// Per-manager registrations accumulated toward the next merge evaluation
  /// (indexed like *managers_; guarded by mu_).
  std::vector<uint64_t> merge_eval_accum_;
  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> resizes_{0};
};

}  // namespace rocc
