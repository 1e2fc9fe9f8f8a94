#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "common/rng.h"
#include "harness/stats.h"

namespace rocc {

/// Tuning knobs for the abort-reason-aware retry policy.
struct ContentionOptions {
  /// Consecutive aborts of one logical scan/bulk transaction before it enters
  /// the protected (starvation-escape) retry.
  uint32_t scan_escalation_aborts = 8;
  /// Same threshold for point transactions (much higher: points win their
  /// races quickly under randomized backoff; escalation is a last resort).
  uint32_t point_escalation_aborts = 96;
  /// Short-ladder backoff for lock/dirty-read/readset aborts: the conflicting
  /// commit finishes in O(100ns), so spin briefly with jitter and yield.
  uint32_t short_backoff_spins = 64;       ///< base spins, doubled per abort
  uint32_t short_backoff_cap_shift = 6;    ///< ladder cap: base << cap
  /// Long-ladder backoff for scan-validation aborts: a re-scan only wins
  /// after the point-write burst drains, so wait much longer before retrying.
  uint32_t long_backoff_spins = 512;       ///< base spins, doubled per abort
  uint32_t long_backoff_cap_shift = 9;     ///< ladder cap: base << cap
  /// Spins between cooperative yields inside a long backoff, so a backing-off
  /// fiber never monopolises the simulated core.
  uint32_t spins_per_yield = 256;
};

/// Abort-reason-aware contention management for the logical-transaction retry
/// loop (RunWithRetries).
///
/// Three jobs, layered on the structured abort reason the protocols now
/// export (ConcurrencyControl::LastAbortReason):
///
///  1. **Per-reason adaptive backoff** (OnAbort). Lock-fail / dirty-read /
///     readset aborts lose a race that resolves in O(100ns): short jittered
///     spin, then yield so a descheduled lock holder can finish. Scan
///     conflicts and ring losses mean a bulk re-scan must outlive the point
///     write burst: capped exponential backoff with yields. An unresolved
///     writer timestamp only needs the writer to advance a few instructions:
///     immediate yield and re-read.
///
///  2. **Starvation escape** (escalation). After K consecutive aborts of one
///     logical transaction, the retrier acquires the protected-retry gate:
///     an exclusive token that pauses *admission* of every other logical
///     transaction (they finish their in-flight attempt, then wait in Admit).
///     Once in-flight attempts drain, the protected transaction re-runs
///     against a quiesced system and must commit; the gate then releases.
///     This guarantees forward progress for bulk scans under any point-write
///     contention, on every scheme — the gate sits above the protocol.
///
///  3. **Honest retry accounting**. Every logical outcome is counted into the
///     worker's TxnStats sink: attempts-per-commit and backoff-time
///     histograms, give_ups (retry budget exhausted — previously dropped
///     silently), escalations, protected_commits, and gate wait time.
///
/// Threading: one State slot per worker, touched only by that worker; the
/// gate is a single atomic. All waits use CooperativeYield, so the manager
/// behaves identically under OS threads and the fiber runner.
class ContentionManager {
 public:
  static constexpr uint32_t kNoHolder = ~0u;

  explicit ContentionManager(uint32_t num_threads, ContentionOptions options = {});

  /// Bind a worker's stats sink (mirrors ConcurrencyControl::AttachThread).
  void AttachThread(uint32_t thread_id, TxnStats* stats);

  /// Start a logical transaction: resets the consecutive-abort ladder.
  void BeginTxn(uint32_t thread_id, bool is_scan_txn);

  /// Admission gate, called before every attempt: waits (cooperatively)
  /// while another transaction holds the protected-retry token.
  void Admit(uint32_t thread_id);

  /// One attempt aborted: apply the per-reason policy (backoff / yield /
  /// escalate). `rng` supplies the backoff jitter.
  void OnAbort(uint32_t thread_id, AbortReason reason, Rng& rng);

  /// The logical transaction committed after `attempts` attempts.
  void OnCommit(uint32_t thread_id, uint32_t attempts);

  /// The retry budget was exhausted; the logical transaction is dropped.
  void OnGiveUp(uint32_t thread_id);

  /// The attempt ended with a non-retryable status; the logical txn is over.
  void OnStop(uint32_t thread_id);

  /// Thread currently holding the protected-retry gate (kNoHolder = none).
  uint32_t protected_holder() const {
    return holder_.load(std::memory_order_acquire);
  }

  /// True while `thread_id`'s current logical transaction is escalated.
  bool InProtectedRetry(uint32_t thread_id) const;

  const ContentionOptions& options() const { return options_; }

 private:
  /// Cache-line aligned: each slot (with its abort ladder and per-reason
  /// counters in local_stats) is touched on every attempt by one worker, and
  /// the slots live behind per-worker heap allocations whose headers would
  /// otherwise let two workers' ladders share a line.
  struct alignas(kCacheLineSize) State {
    TxnStats local_stats;     // fallback sink when none is attached
    TxnStats* stats = nullptr;
    uint32_t consecutive_aborts = 0;
    bool is_scan = false;
    bool protected_mode = false;
  };
  static_assert(sizeof(State) % kCacheLineSize == 0,
                "per-worker retry state must occupy whole cache lines");

  TxnStats& stats(uint32_t thread_id) {
    State& st = *states_[thread_id];
    return st.stats != nullptr ? *st.stats : st.local_stats;
  }

  void EnterProtected(uint32_t thread_id);
  void ReleaseProtected(uint32_t thread_id);

  /// Spin `spins` times, yielding every `spins_per_yield` so co-scheduled
  /// fibers (or a descheduled lock holder) can run.
  void SpinWithYields(uint64_t spins) const;

  ContentionOptions options_;
  /// Hot-reloadable contention-gate K (knob "gate_scan_escalation_aborts"):
  /// the scan escalation threshold is consulted on every scan abort, so the
  /// knob cell replaces the plain options_ field on that read.
  std::atomic<uint64_t>* scan_escalation_knob_;
  std::vector<std::unique_ptr<State>> states_;
  /// Protected-retry token: thread id of the holder, kNoHolder when free.
  alignas(kCacheLineSize) std::atomic<uint32_t> holder_{kNoHolder};
};

}  // namespace rocc
