#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cc/cc.h"
#include "harness/stats.h"
#include "workload/workload.h"

namespace rocc {

class LogManager;

/// How worker "threads" are executed.
enum class ExecMode {
  kAuto,     ///< fibers when num_threads exceeds hardware concurrency
  kThreads,  ///< one OS thread per worker (real parallelism required)
  kFibers,   ///< cooperative fibers on one OS thread (simulated many-core)
};

/// Parameters of one measured run.
struct RunOptions {
  uint32_t num_threads = 4;
  uint64_t txns_per_thread = 5000;
  uint64_t warmup_txns_per_thread = 200;
  uint64_t seed = 1;
  ExecMode mode = ExecMode::kAuto;
  /// Validation-work units between cooperative yields in fiber mode
  /// (ConcurrencyControl::SetValidationPacing); 0 disables pacing.
  uint32_t validation_pacing = 16;
  /// When set, attached to the protocol before workers start: commits append
  /// redo records and block on group-commit acknowledgement. Not owned; the
  /// caller opens it first and stops it after the run.
  LogManager* log = nullptr;
};

/// Aggregated outcome of one measured run.
struct RunResult {
  TxnStats stats;
  double seconds = 0;
  uint64_t total_txns = 0;  ///< logical transactions issued (excl. warmup)

  double Throughput() const { return seconds > 0 ? stats.commits / seconds : 0; }
  double ScanThroughput() const {
    return seconds > 0 ? stats.scan_txn_commits / seconds : 0;
  }
  /// Mean overlapping transactions examined per committed scan transaction.
  double ValidatedTxnsPerScan() const {
    return stats.scan_txn_commits == 0
               ? 0
               : static_cast<double>(stats.validated_txns) /
                     static_cast<double>(stats.scan_txn_commits);
  }
  double ValidatedRecordsPerCommit() const {
    return stats.commits == 0 ? 0
                              : static_cast<double>(stats.validated_records) /
                                    static_cast<double>(stats.commits);
  }
};

/// Run `txns_per_thread` logical transactions on each of `num_threads`
/// workers against the given protocol and workload, with a warmup phase
/// excluded from the returned statistics. Threads start the measured region
/// together behind a barrier.
RunResult RunExperiment(ConcurrencyControl* cc, Workload* workload,
                        const RunOptions& options);

/// Mid-run merge of every worker's statistics sink (warm-up + measured),
/// for the live observability plane (/vars, /metrics without a streamer).
/// Returns zeros when no experiment is in flight. The reads deliberately
/// race the owning workers — plain counter loads whose torn values are at
/// worst one increment stale — and are bracketed with TSan ignore
/// annotations; treat the result as diagnostics, not accounting.
TxnStats CollectLiveStats();

/// True while an experiment's workers are running.
bool LiveRunActive();

/// Names accepted by CreateProtocol: "rocc", "lrv", "gwv", "mvrcc", "2pl".
/// `ranges_hint` scales the workload's logical-range layout (0 = default);
/// `ring_capacity` sizes every circular transaction list.
/// `rocc_register_writes` is the Fig. 12 ablation toggle.
/// A "+mv" suffix on `name` (e.g. "rocc+mv") turns on the multi-version row
/// store (ConcurrencyControl::EnableMvcc) so read-only snapshot scans
/// resolve against version chains.
std::unique_ptr<ConcurrencyControl> CreateProtocol(
    const std::string& name, Database* db, const Workload& workload,
    uint32_t num_threads, uint32_t ranges_hint = 0, uint32_t ring_capacity = 4096,
    bool rocc_register_writes = true);

}  // namespace rocc
