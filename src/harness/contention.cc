#include "harness/contention.h"

#include <algorithm>

#include "common/fiber.h"
#include "common/timer.h"
#include "harness/knobs.h"
#include "obs/obs.h"

namespace rocc {

ContentionManager::ContentionManager(uint32_t num_threads, ContentionOptions options)
    : options_(options) {
  scan_escalation_knob_ = KnobRegistry::Instance().Register(
      "gate_scan_escalation_aborts", options_.scan_escalation_aborts);
  states_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; i++) {
    states_.push_back(std::make_unique<State>());
  }
}

void ContentionManager::AttachThread(uint32_t thread_id, TxnStats* sink) {
  states_[thread_id]->stats = sink;
}

void ContentionManager::BeginTxn(uint32_t thread_id, bool is_scan_txn) {
  State& st = *states_[thread_id];
  st.consecutive_aborts = 0;
  st.is_scan = is_scan_txn;
}

bool ContentionManager::InProtectedRetry(uint32_t thread_id) const {
  return states_[thread_id]->protected_mode;
}

void ContentionManager::Admit(uint32_t thread_id) {
  uint32_t h = holder_.load(std::memory_order_acquire);
  if (h == kNoHolder || h == thread_id) return;
  const uint64_t wait_start = NowNanos();
  obs::HeartbeatPhase(thread_id, obs::Phase::kGateWait, wait_start);
  do {
    CooperativeYield();
    h = holder_.load(std::memory_order_acquire);
  } while (h != kNoHolder && h != thread_id);
  const uint64_t now = NowNanos();
  stats(thread_id).gate_wait_ns += now - wait_start;
  // Always recorded: gate stalls are rare but long, exactly what 1/N
  // sampling would miss.
  obs::SpanEventAlways(thread_id, obs::Phase::kGateWait, wait_start, now);
  obs::HeartbeatClear(thread_id);
}

void ContentionManager::EnterProtected(uint32_t thread_id) {
  // Protected retriers are serialized: wait for the current holder (it must
  // commit — the gate quiesces its conflicts), then claim the token.
  uint32_t expected = kNoHolder;
  while (!holder_.compare_exchange_weak(expected, thread_id,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    expected = kNoHolder;
    CooperativeYield();
  }
  states_[thread_id]->protected_mode = true;
  obs::WorkerEvent(thread_id, obs::EventType::kGateEnter, 0, thread_id, 0);
}

void ContentionManager::ReleaseProtected(uint32_t thread_id) {
  State& st = *states_[thread_id];
  if (!st.protected_mode) return;
  st.protected_mode = false;
  holder_.store(kNoHolder, std::memory_order_release);
  obs::WorkerEvent(thread_id, obs::EventType::kGateExit, 0, thread_id, 0);
}

void ContentionManager::SpinWithYields(uint64_t spins) const {
  const uint64_t chunk = std::max<uint32_t>(options_.spins_per_yield, 1);
  while (spins > 0) {
    const uint64_t n = std::min<uint64_t>(spins, chunk);
    for (uint64_t i = 0; i < n; i++) CpuRelax();
    spins -= n;
    if (spins > 0) CooperativeYield();
  }
}

void ContentionManager::OnAbort(uint32_t thread_id, AbortReason reason, Rng& rng) {
  State& st = *states_[thread_id];
  TxnStats& s = stats(thread_id);
  st.consecutive_aborts++;

  if (st.protected_mode) {
    // Gate held: conflicts can only come from attempts already in flight.
    // Yield so they drain; backing off would just delay the committed retry.
    CooperativeYield();
    return;
  }

  // Contention-gate K for scans reads the hot-reloadable knob; the point
  // threshold is a last-resort constant and stays plain config.
  const uint32_t threshold =
      st.is_scan ? static_cast<uint32_t>(scan_escalation_knob_->load(
                       std::memory_order_relaxed))
                 : options_.point_escalation_aborts;
  if (threshold != 0 && st.consecutive_aborts >= threshold) {
    s.escalations++;
    EnterProtected(thread_id);
    return;
  }

  const uint64_t backoff_start = NowNanos();
  obs::HeartbeatPhase(thread_id, obs::Phase::kBackoff, backoff_start);
  const uint32_t rung = st.consecutive_aborts - 1;  // first abort = rung 0
  switch (reason) {
    case AbortReason::kUnresolved:
      // The writer only needs a few instructions to publish its commit
      // timestamp: yield once and re-read, no backoff.
      CooperativeYield();
      break;
    case AbortReason::kScanConflict:
    case AbortReason::kRingLost: {
      // A re-scan can only win once the overlapping point-write burst has
      // drained past the new rd_ts: long capped exponential backoff.
      const uint32_t shift = std::min(rung, options_.long_backoff_cap_shift);
      const uint64_t spins =
          rng.Uniform(static_cast<uint64_t>(options_.long_backoff_spins) << shift) + 1;
      SpinWithYields(spins);
      CooperativeYield();
      break;
    }
    case AbortReason::kDirtyRead:
    case AbortReason::kLockFail:
    case AbortReason::kReadValidation:
    case AbortReason::kExplicit:
    // An evicted snapshot is not a data conflict: the immediate retry
    // acquires a fresh snapshot near the watermark, whose chains the pruner
    // keeps — the short ladder's first rung (no backoff) is the right policy.
    case AbortReason::kSnapshotEvicted:
    case AbortReason::kNone:
    default: {
      // Short jittered spin breaks the symmetric-retrier livelock; the yield
      // lets a descheduled lock holder finish instead of burning the slice
      // on retries doomed to hit the same lock.
      const uint32_t shift = std::min(rung, options_.short_backoff_cap_shift);
      const uint64_t spins =
          rng.Uniform(static_cast<uint64_t>(options_.short_backoff_spins) << shift);
      for (uint64_t i = 0; i < spins; i++) CpuRelax();
      if (st.consecutive_aborts > 1) CooperativeYield();
      break;
    }
  }
  const uint64_t backoff_end = NowNanos();
  const uint64_t waited = backoff_end - backoff_start;
  s.backoff_ns_total += waited;
  s.backoff_time.Record(waited);
  // Sampling-gated like the txn spans: the aborted attempt that triggered
  // this backoff belongs to the same sampled transaction timeline.
  obs::SpanEvent(thread_id, obs::Phase::kBackoff, backoff_start, backoff_end);
  obs::HeartbeatClear(thread_id);
}

void ContentionManager::OnCommit(uint32_t thread_id, uint32_t attempts) {
  State& st = *states_[thread_id];
  TxnStats& s = stats(thread_id);
  s.attempts_per_commit.Record(attempts);
  if (st.protected_mode) s.protected_commits++;
  ReleaseProtected(thread_id);
  st.consecutive_aborts = 0;
}

void ContentionManager::OnGiveUp(uint32_t thread_id) {
  stats(thread_id).give_ups++;
  ReleaseProtected(thread_id);
  states_[thread_id]->consecutive_aborts = 0;
}

void ContentionManager::OnStop(uint32_t thread_id) {
  ReleaseProtected(thread_id);
  states_[thread_id]->consecutive_aborts = 0;
}

}  // namespace rocc
