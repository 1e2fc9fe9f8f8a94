#pragma once

#include <cstdint>

#include "common/cacheline.h"
#include "common/histogram.h"

namespace rocc {

/// Structured cause of one aborted attempt. The protocol records the reason
/// at the abort site (see OccBase::NoteAbortCause) so the retry layer can
/// pick a per-reason policy instead of one blind backoff; each value maps
/// 1:1 onto an `abort_*` counter in TxnStats.
enum class AbortReason : uint8_t {
  kNone = 0,        ///< no abort recorded for the current attempt
  kDirtyRead,       ///< read/scan hit a locked (committing) record
  kLockFail,        ///< writeset lock not acquired (incl. 2PL no-wait)
  kReadValidation,  ///< readset version changed
  kScanConflict,    ///< predicate / re-scan found an overlapping writer
  kRingLost,        ///< ring wrapped or slot overwritten
  kUnresolved,      ///< writer commit ts unresolved within the spin budget
  kExplicit,        ///< workload-initiated abort (no protocol conflict)
  kSnapshotEvicted, ///< pinned snapshot evicted under version-memory pressure
};

/// Canonical short name for an abort reason. This is the single string table
/// for the whole repo: the report table, bench JSON column names, the trace
/// exporters, and the Prometheus labels all derive from it, so a grep for
/// one of these names matches across every surface.
constexpr const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kDirtyRead: return "dirty_read";
    case AbortReason::kLockFail: return "lock_fail";
    case AbortReason::kReadValidation: return "read_validation";
    case AbortReason::kScanConflict: return "scan_conflict";
    case AbortReason::kRingLost: return "ring_lost";
    case AbortReason::kUnresolved: return "unresolved";
    case AbortReason::kExplicit: return "explicit";
    case AbortReason::kSnapshotEvicted: return "snapshot_evicted";
  }
  return "unknown";
}

/// Every real abort cause (kNone excluded), in TxnStats counter order.
/// Reporting code iterates this instead of hand-listing causes.
inline constexpr AbortReason kAbortCauses[] = {
    AbortReason::kDirtyRead,      AbortReason::kLockFail,
    AbortReason::kReadValidation, AbortReason::kScanConflict,
    AbortReason::kRingLost,       AbortReason::kUnresolved,
    AbortReason::kExplicit,       AbortReason::kSnapshotEvicted,
};
inline constexpr size_t kNumAbortCauses =
    sizeof(kAbortCauses) / sizeof(kAbortCauses[0]);

/// Column index of `r` in per-reason matrices: 0 = kNone (the attempt
/// committed), 1.. = kAbortCauses order. Reporting code maps a column back
/// to a name via AbortReasonName(column == 0 ? kNone : kAbortCauses[c - 1]).
constexpr uint32_t AbortReasonColumn(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return 0;
    case AbortReason::kDirtyRead: return 1;
    case AbortReason::kLockFail: return 2;
    case AbortReason::kReadValidation: return 3;
    case AbortReason::kScanConflict: return 4;
    case AbortReason::kRingLost: return 5;
    case AbortReason::kUnresolved: return 6;
    case AbortReason::kExplicit: return 7;
    case AbortReason::kSnapshotEvicted: return 8;
  }
  return 0;
}

/// Per-thread execution statistics.
///
/// Counters mirror the measurements the paper reports:
///  - commits/aborts                        -> throughput, abort rate
///  - read_write_ns / validation_ns /
///    abort_ns                              -> Fig. 1 phase breakdown
///  - validated_records                     -> LRV cost (records re-read)
///  - validated_txns                        -> GWV/RV cost (overlapping txns
///                                             examined; Fig. 7(c), 9(b))
///  - registrations                         -> ROCC overhead analysis (Fig. 12)
///
/// Each worker thread owns one instance; the runner merges them after the
/// measured region. Cache-line aligned because the runner hands workers
/// adjacent elements of a std::vector<TxnStats> — without the alignment the
/// hottest per-commit counters of neighboring workers share a line.
struct alignas(kCacheLineSize) TxnStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t scan_txn_commits = 0;
  uint64_t scan_txn_aborts = 0;

  uint64_t read_write_ns = 0;   ///< read phase + write phase of committed txns
  uint64_t validation_ns = 0;   ///< lock + register + validate of committed txns
  uint64_t abort_ns = 0;        ///< total time of aborted attempts

  uint64_t validated_records = 0;  ///< record-level checks incl. LRV re-reads
  uint64_t validated_txns = 0;     ///< overlapping txns examined (GWV/RV/MVRCC)
  uint64_t registrations = 0;      ///< range-list registrations performed
  uint64_t scanned_records = 0;    ///< records returned by scan operators

  // Durability (populated only when a LogManager is attached).
  uint64_t log_records = 0;           ///< redo records appended to the WAL
  uint64_t durable_acks = 0;          ///< commits acknowledged as durable
  uint64_t durable_ack_failures = 0;  ///< durability waits cut short (crash/stop)
  uint64_t durable_wait_ns = 0;       ///< time blocked on group commit

  // Abort causes (exactly one per aborted attempt; their sum equals
  // `aborts` — checked by the runner in debug builds and by ctest).
  uint64_t abort_dirty_read = 0;       ///< read/scan hit a locked record
  uint64_t abort_lock_fail = 0;        ///< writeset lock not acquired
  uint64_t abort_read_validation = 0;  ///< readset version changed
  uint64_t abort_scan_conflict = 0;    ///< predicate / re-scan found a writer
  uint64_t abort_ring_lost = 0;        ///< ring wrapped or slot overwritten
  uint64_t abort_unresolved = 0;       ///< writer commit ts unresolved in time
  uint64_t abort_explicit = 0;         ///< workload-initiated abort, no conflict
  uint64_t abort_snapshot_evicted = 0; ///< pinned snapshot evicted under pressure

  // Multi-version row store (populated only when MVCC is enabled).
  // These are rate counters merged across workers; live-memory gauges come
  // from mv::VersionStore::Telemetry() instead, because the harness swaps
  // warm-up and measured sinks and a gauge split across sinks goes negative.
  uint64_t mv_versions_installed = 0;  ///< predecessor nodes linked at commit
  uint64_t mv_version_bytes_installed = 0;  ///< node + payload bytes installed
  uint64_t mv_snapshot_scans = 0;      ///< SnapshotScan operator invocations
  uint64_t mv_snapshot_records = 0;    ///< records returned by snapshot scans
  uint64_t mv_chain_reads = 0;         ///< snapshot reads resolved off-row
  uint64_t mv_snapshot_point_reads = 0;  ///< point reads resolved at a snapshot
  uint64_t mv_snapshot_txns = 0;       ///< read-only snapshot txns committed
                                       ///< (no validation, no locks, no WAL)

  // Retry-layer accounting (populated by the ContentionManager).
  uint64_t give_ups = 0;           ///< logical txns dropped: retry budget spent
  uint64_t escalations = 0;        ///< entries into protected (escalated) retry
  uint64_t protected_commits = 0;  ///< commits that needed the protected retry
  uint64_t backoff_ns_total = 0;   ///< time spent in adaptive abort backoff
  uint64_t gate_wait_ns = 0;       ///< time stalled behind a protected retry

  Histogram latency_all;      ///< committed transaction latency
  Histogram latency_scan;     ///< committed bulk/scan transaction latency
  Histogram latency_durable;  ///< begin -> durable-acknowledge latency
  Histogram attempts_per_commit;  ///< attempts per committed logical txn (1 = first try)
  Histogram backoff_time;         ///< per-abort adaptive backoff duration (ns)
  Histogram mv_chain_length;      ///< version-chain length after install+prune

  // Per-phase latency of committed attempts; populated only while the flight
  // recorder is installed (obs::Enabled()), using timestamps the commit path
  // already takes — obs-off runs pay nothing for these.
  Histogram phase_execute;   ///< begin -> commit-entry (read/write phase)
  Histogram phase_validate;  ///< lock + register + validate
  Histogram phase_apply;     ///< write install + ring publish
  Histogram phase_log_wait;  ///< group-commit durability wait

  // Tail-latency SLO accounting (populated only when the flight recorder is
  // installed AND obs_slo_us > 0). slo_violations[p][c] counts attempts
  // whose total latency blew the SLO, attributed to slowest phase p (the
  // first four Phase values: execute/validate/apply/log_wait) and outcome
  // column c (AbortReasonColumn: 0 = committed, 1.. = abort cause).
  static constexpr uint32_t kNumSloPhases = 4;
  uint64_t slo_violations[kNumSloPhases][kNumAbortCauses + 1] = {};
  Histogram latency_slo;  ///< total latency of SLO-violating attempts (ns)

  uint64_t SloViolationTotal() const {
    uint64_t total = 0;
    for (uint32_t p = 0; p < kNumSloPhases; p++) {
      for (uint32_t c = 0; c <= kNumAbortCauses; c++) {
        total += slo_violations[p][c];
      }
    }
    return total;
  }

  void Merge(const TxnStats& o) {
    commits += o.commits;
    aborts += o.aborts;
    scan_txn_commits += o.scan_txn_commits;
    scan_txn_aborts += o.scan_txn_aborts;
    read_write_ns += o.read_write_ns;
    validation_ns += o.validation_ns;
    abort_ns += o.abort_ns;
    validated_records += o.validated_records;
    validated_txns += o.validated_txns;
    registrations += o.registrations;
    scanned_records += o.scanned_records;
    log_records += o.log_records;
    durable_acks += o.durable_acks;
    durable_ack_failures += o.durable_ack_failures;
    durable_wait_ns += o.durable_wait_ns;
    abort_dirty_read += o.abort_dirty_read;
    abort_lock_fail += o.abort_lock_fail;
    abort_read_validation += o.abort_read_validation;
    abort_scan_conflict += o.abort_scan_conflict;
    abort_ring_lost += o.abort_ring_lost;
    abort_unresolved += o.abort_unresolved;
    abort_explicit += o.abort_explicit;
    abort_snapshot_evicted += o.abort_snapshot_evicted;
    mv_versions_installed += o.mv_versions_installed;
    mv_version_bytes_installed += o.mv_version_bytes_installed;
    mv_snapshot_scans += o.mv_snapshot_scans;
    mv_snapshot_records += o.mv_snapshot_records;
    mv_chain_reads += o.mv_chain_reads;
    mv_snapshot_point_reads += o.mv_snapshot_point_reads;
    mv_snapshot_txns += o.mv_snapshot_txns;
    give_ups += o.give_ups;
    escalations += o.escalations;
    protected_commits += o.protected_commits;
    backoff_ns_total += o.backoff_ns_total;
    gate_wait_ns += o.gate_wait_ns;
    latency_all.Merge(o.latency_all);
    latency_scan.Merge(o.latency_scan);
    latency_durable.Merge(o.latency_durable);
    attempts_per_commit.Merge(o.attempts_per_commit);
    backoff_time.Merge(o.backoff_time);
    mv_chain_length.Merge(o.mv_chain_length);
    phase_execute.Merge(o.phase_execute);
    phase_validate.Merge(o.phase_validate);
    phase_apply.Merge(o.phase_apply);
    phase_log_wait.Merge(o.phase_log_wait);
    for (uint32_t p = 0; p < kNumSloPhases; p++) {
      for (uint32_t c = 0; c <= kNumAbortCauses; c++) {
        slo_violations[p][c] += o.slo_violations[p][c];
      }
    }
    latency_slo.Merge(o.latency_slo);
  }

  /// Bump the cause counter matching `r` (kNone is not a cause).
  void CountAbortCause(AbortReason r) {
    switch (r) {
      case AbortReason::kDirtyRead: abort_dirty_read++; break;
      case AbortReason::kLockFail: abort_lock_fail++; break;
      case AbortReason::kReadValidation: abort_read_validation++; break;
      case AbortReason::kScanConflict: abort_scan_conflict++; break;
      case AbortReason::kRingLost: abort_ring_lost++; break;
      case AbortReason::kUnresolved: abort_unresolved++; break;
      case AbortReason::kExplicit: abort_explicit++; break;
      case AbortReason::kSnapshotEvicted: abort_snapshot_evicted++; break;
      case AbortReason::kNone: break;
    }
  }

  /// Sum of the per-cause abort counters; equals `aborts` when every abort
  /// path recorded its reason exactly once.
  uint64_t AbortCauseSum() const {
    return abort_dirty_read + abort_lock_fail + abort_read_validation +
           abort_scan_conflict + abort_ring_lost + abort_unresolved +
           abort_explicit + abort_snapshot_evicted;
  }

  void Reset() {
    *this = TxnStats{};
  }

  double AbortRate() const {
    const uint64_t total = commits + aborts;
    return total == 0 ? 0.0 : static_cast<double>(aborts) / static_cast<double>(total);
  }

  double ScanAbortRate() const {
    const uint64_t total = scan_txn_commits + scan_txn_aborts;
    return total == 0 ? 0.0
                      : static_cast<double>(scan_txn_aborts) / static_cast<double>(total);
  }
};

static_assert(sizeof(TxnStats) % kCacheLineSize == 0 &&
                  alignof(TxnStats) == kCacheLineSize,
              "adjacent workers' stats sinks must not share a cache line");

/// Counter value for one abort cause; pairs with kAbortCauses so reporting
/// code can iterate causes without naming each field.
uint64_t AbortCauseCount(const TxnStats& s, AbortReason r);

}  // namespace rocc
