#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cc/cc.h"
#include "harness/stats.h"
#include "workload/workload.h"

namespace perfbench {

class TracedCc;

/// One fixed-work closed-loop run: `workers` OS threads each claim logical
/// transactions from a shared counter until `txns` have been claimed, and
/// time every logical transaction from outside its Workload::RunTxn calls. A
/// call that gives up (retry budget spent) is resubmitted with the same plan
/// and counted in `gave_up`. A count-based warm-up (claimed from its own
/// counter, statistics discarded) precedes the measured window.
///
/// The window opens when the last worker arrives at the start barrier and
/// closes when the last worker finishes; the calling thread only blocks in
/// join, so no thread other than the workers (and the engine's own WAL
/// flusher) runs during the window.
///
/// The window is cut into `slices` consecutive runs of claimed transactions.
/// The worker that claims the first transaction of a slice reads the wall
/// and process-CPU clocks, so each slice has its own rate, CPU cost and
/// latency samples.
struct LoopOptions {
  uint32_t workers = 3;
  uint64_t warmup_txns = 0;
  uint64_t txns = 0;
  uint32_t slices = 1;
  uint64_t seed = 1;
  /// When set, the protocol handed to RunClosedLoop is this decorator: its
  /// accumulators are reset at the window start and told where each logical
  /// transaction begins, so retry gaps never span two transactions.
  TracedCc* traced = nullptr;
  /// Run on a worker thread while every worker waits at the start barrier,
  /// just before the window clocks are read / just after they are read at
  /// the end. Used to snapshot engine gauges at the window edges.
  std::function<void()> on_window_start;
  std::function<void()> on_window_end;
};

/// One slice of the window. Its samples are `LoopResult::samples[begin,
/// end)`: RunTxn wall nanoseconds, OLTP transactions in [begin, bulk) and bulk
/// (is_scan_txn) transactions in [bulk, end).
struct Slice {
  double wall_s = 0;
  double cpu_s = 0;               ///< process CPU time, all threads
  uint64_t committed = 0;
  uint64_t begin = 0;
  uint64_t bulk = 0;
  uint64_t end = 0;
};

struct LoopResult {
  rocc::TxnStats stats;         ///< measured sinks, merged
  rocc::TxnStats warmup_stats;  ///< warm-up sinks, merged
  std::vector<Slice> slices;
  std::vector<uint32_t> samples;  ///< one per claimed transaction, by slice
  uint64_t txn_ns_total = 0;    ///< sum of every logical txn's wall time
  uint64_t attempted = 0;       ///< logical txns claimed in the window
  uint64_t committed = 0;       ///< logical txns that committed
  uint64_t committed_bulk = 0;
  uint64_t calls = 0;           ///< RunTxn calls, resubmissions included
  uint64_t gave_up = 0;         ///< calls Aborted with the retry budget spent
  uint64_t bad_status = 0;      ///< calls with any other outcome (window + warm-up)
  double window_s = 0;
  double cpu_s = 0;             ///< process CPU time over the window
  double steal_share = 0;       ///< host steal over the window (/proc/stat)

  std::span<uint32_t> Oltp(const Slice& s) {
    return {samples.data() + s.begin, samples.data() + s.bulk};
  }
  std::span<uint32_t> Bulk(const Slice& s) {
    return {samples.data() + s.bulk, samples.data() + s.end};
  }
};

/// RunTxn calls a logical transaction gets before it counts as failed: each
/// call that gives up is followed by a resubmission of the same plan. A call
/// makes about a thousand attempts, so spending every call takes seconds of
/// failed attempts: a livelock, not a lock holder preempted for milliseconds.
inline constexpr uint32_t kMaxSubmissions = 1000;

LoopResult RunClosedLoop(rocc::ConcurrencyControl* cc, rocc::Workload* workload,
                         const LoopOptions& options);

/// Nearest-rank percentile of a sample set with the number of samples that
/// lie beyond it. A percentile with fewer than `kMinBeyond` samples beyond
/// it is not supported by the data and is refused (nullopt).
struct Percentile {
  uint64_t value_ns = 0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
};
inline constexpr uint64_t kMinBeyond = 10;
/// Reorders `samples`.
std::optional<Percentile> TakePercentile(std::span<uint32_t> samples, double q);

}  // namespace perfbench
