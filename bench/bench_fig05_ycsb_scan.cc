// Fig. 5 — Hybrid YCSB: (a) throughput of scan transactions and (b) average
// latency of scan transactions, as the scan length grows from 10 to 1500.
//
// Paper setup: 40 threads, 10M rows, low skew, 90%/10% mix. Expected shape:
// all schemes grow at first; LRV peaks around 300 keys and falls off; RV is
// best at long scans (~3x LRV, ~1.2x GWV at 1500) and within ~10% of LRV at
// very short scans (registration overhead).
//
// Two extra modes share this binary's YCSB scaffolding:
//
//   --sweep-ranges [LIST]  Fig. 11-style granularity curve: static ROCC with
//                          num_ranges swept over LIST (default 16..4096),
//                          the baseline any adaptive layout must match.
//   --ab                   static vs adaptive A/B on a high-skew composite
//                          cell (--ab-theta, default 0.95) plus a uniform
//                          control cell, with per-range telemetry for the
//                          adaptive runs. --ab-ring (default 32) and
//                          --ab-ranges (default 64) pick a coarse layout
//                          with small rings so the hot range's ring actually
//                          churns at quick scale; --ab-reps (default 3) runs
//                          alternating repetitions and reports both layouts
//                          from the rep with the median paired tps delta.

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "core/rocc.h"

using namespace rocc;        // NOLINT
using namespace rocc::bench; // NOLINT

namespace {

double PointThroughput(const RunResult& r) {
  return r.seconds > 0
             ? static_cast<double>(r.stats.commits - r.stats.scan_txn_commits) /
                   r.seconds
             : 0;
}

/// Column name for one abort cause, derived from the shared string table so
/// the header always matches the trace/Prometheus/report label for the cause.
std::string AbortHeader(AbortReason r) {
  return std::string("abort_") + AbortReasonName(r);
}

/// Fig. 11-style static-granularity baseline: same workload, ROCC only,
/// sweeping the number of equal-width ranges.
int SweepRanges(const BenchEnv& env) {
  PrintBanner("Fig. 11 companion: static ROCC range-granularity sweep",
              env.Describe());
  YcsbOptions opts;
  opts.theta = env.cfg.GetDouble("theta", 0.7);
  opts.scan_length = static_cast<uint64_t>(
      env.cfg.GetInt("scan_len", static_cast<int64_t>(opts.scan_length)));
  YcsbBench bench(env, opts);

  std::vector<std::string> headers = {
      "num_ranges", "range_keys", "scan_tps", "total_tps",
      AbortHeader(AbortReason::kRingLost),
      AbortHeader(AbortReason::kScanConflict)};
  for (const std::string& h : ContentionHeaders()) headers.push_back(h);
  ReportTable table(std::move(headers));

  GiveUpGuard guard;
  const uint32_t ring =
      static_cast<uint32_t>(env.cfg.GetInt("ring", 4096));
  const auto counts = env.cfg.GetIntList(
      "sweep-ranges", {16, 64, 256, 1024, 4096});
  for (int64_t n : counts) {
    if (n <= 0) continue;
    const RunResult r = bench.Run("rocc", static_cast<uint32_t>(n), ring);
    guard.Check(r, "rocc @ num_ranges=" + F(static_cast<uint64_t>(n)));
    std::vector<std::string> row = {
        F(static_cast<uint64_t>(n)),
        F(static_cast<uint64_t>(env.rows / static_cast<uint64_t>(n))),
        F(r.ScanThroughput(), 1), F(r.Throughput(), 1),
        F(r.stats.abort_ring_lost), F(r.stats.abort_scan_conflict)};
    for (std::string& c : ContentionCells(r.stats)) row.push_back(std::move(c));
    table.AddRow(std::move(row));
  }
  Emit(env, table, "range_sweep");
  return guard.Failed() ? 1 : 0;
}

/// Static vs adaptive A/B: a high-skew composite cell where the hot range's
/// ring churns, plus a uniform control cell that must stay at parity.
///
/// The static layout is deliberately coarse (--ab-ranges, default 64) with a
/// small ring (--ab-ring, default 64): under skew the hot range's ring then
/// actually wraps at quick scale, which is the regime the tuner exists for.
/// The adaptive side starts from the SAME layout and must earn its keep by
/// splitting.
int AdaptiveAb(const BenchEnv& env) {
  PrintBanner("Adaptive range tuning A/B: static vs adaptive ROCC",
              env.Describe());
  const double ab_theta = env.cfg.GetDouble("ab-theta", 0.95);
  const uint32_t ring = static_cast<uint32_t>(env.cfg.GetInt("ab-ring", 32));
  const uint32_t ranges =
      static_cast<uint32_t>(env.cfg.GetInt("ab-ranges", 64));
  const int reps = static_cast<int>(env.cfg.GetInt("ab-reps", 3));
  YcsbOptions opts;
  opts.theta = ab_theta;
  // Paper-composite scan placement: bulk blocks are uniform while point
  // updates stay Zipfian (§IV), so scans mostly read cold spans that share
  // coarse ranges with hot writers — the false-sharing regime adaptive
  // splitting exists to fix. Override with --ab-scan-theta.
  opts.scan_theta = env.cfg.GetDouble("ab-scan-theta", 0.0);
  opts.scan_length = static_cast<uint64_t>(
      env.cfg.GetInt("scan_len", static_cast<int64_t>(opts.scan_length)));
  YcsbBench bench(env, opts);


  std::vector<std::string> headers = {
      "cell",      "layout",   "total_tps",
      "point_tps", "scan_tps", "scan_abort_rate",
      AbortHeader(AbortReason::kRingLost),
      AbortHeader(AbortReason::kScanConflict)};
  for (const std::string& h : ContentionHeaders()) headers.push_back(h);
  for (const std::string& h : RangeSummaryHeaders()) headers.push_back(h);
  ReportTable table(std::move(headers));

  GiveUpGuard guard;
  struct Cell {
    const char* name;
    double theta;
  };
  for (const Cell& cell : {Cell{"skew", ab_theta}, Cell{"uniform", 0.0}}) {
    YcsbOptions cur = bench.options();
    cur.theta = cell.theta;
    bench.Reconfigure(cur);
    // One discarded priming run per cell: the first measured run otherwise
    // pays the allocator/page-fault warm-up for everyone and skews the A/B
    // by far more than the effect under measurement.
    {
      RoccOptions ropts;
      ropts.tables = bench.workload().RangeConfigs(ranges, ring);
      ropts.default_ring_capacity = ring;
      auto prime = std::make_unique<Rocc>(bench.db(), env.threads, ropts);
      (void)bench.RunWith(prime.get());
    }
    // Alternate static/adaptive over `reps` repetitions: single-core fiber
    // runs drift within one process, so back-to-back single runs would
    // systematically favor whichever layout runs second.
    struct Measured {
      RunResult r;
      RangeTelemetry tel;
    };
    std::vector<Measured> runs[2];  // [static, adaptive]
    for (int rep = 0; rep < reps; rep++) {
      for (const bool adaptive : {false, true}) {
        RoccOptions ropts;
        ropts.tables = bench.workload().RangeConfigs(ranges, ring);
        ropts.default_ring_capacity = ring;
        ropts.tuner.enabled = adaptive;
        auto cc = std::make_unique<Rocc>(bench.db(), env.threads, ropts);
        const RunResult r = bench.RunWith(cc.get());
        guard.Check(r, std::string(cell.name) + "/" +
                           (adaptive ? "adaptive" : "static") + " rep " +
                           F(static_cast<uint64_t>(rep)));
        std::printf("  [%s rep %d] %-8s total_tps=%.1f ring_lost=%llu "
                    "escalations=%llu splits=%llu\n",
                    cell.name, rep, adaptive ? "adaptive" : "static",
                    r.Throughput(),
                    static_cast<unsigned long long>(r.stats.abort_ring_lost),
                    static_cast<unsigned long long>(r.stats.escalations),
                    static_cast<unsigned long long>(
                        adaptive ? cc->tuner()->splits() : 0));
        runs[adaptive ? 1 : 0].push_back(
            {r, cc->range_manager(bench.workload().table_id())->Telemetry()});
      }
    }
    // Pick the rep whose paired delta (adaptive vs the static run adjacent in
    // time) is the median of all paired deltas, and report BOTH layouts from
    // that rep. Ambient host load drifts across the session, so comparing
    // each layout's independently-chosen median run contrasts different
    // moments; runs within one rep share conditions and cancel the drift.
    std::vector<size_t> order(runs[0].size());
    for (size_t i = 0; i < order.size(); i++) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return runs[1][a].r.Throughput() - runs[0][a].r.Throughput() <
             runs[1][b].r.Throughput() - runs[0][b].r.Throughput();
    });
    const size_t median_rep = order[order.size() / 2];
    for (const bool adaptive : {false, true}) {
      const Measured& m = runs[adaptive ? 1 : 0][median_rep];
      const std::string label =
          std::string(cell.name) + "/" + (adaptive ? "adaptive" : "static");
      std::vector<std::string> row = {
          cell.name,
          adaptive ? "adaptive" : "static",
          F(m.r.Throughput(), 1),
          F(PointThroughput(m.r), 1),
          F(m.r.ScanThroughput(), 1),
          F(m.r.stats.ScanAbortRate(), 4),
          F(m.r.stats.abort_ring_lost),
          F(m.r.stats.abort_scan_conflict)};
      for (std::string& c : ContentionCells(m.r.stats)) row.push_back(std::move(c));
      for (std::string& c : RangeSummaryCells(m.tel)) row.push_back(std::move(c));
      table.AddRow(std::move(row));
      if (adaptive) {
        ReportTable tel_table = RangeTelemetryTable(m.tel);
        std::printf("\nper-range telemetry (%s median run, hottest first):\n",
                    label.c_str());
        Emit(env, tel_table, "ranges_" + std::string(cell.name));
      }
    }
  }
  std::printf("\n");
  Emit(env, table, "adaptive_ab");
  return guard.Failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = ParseEnv(argc, argv);
  if (env.cfg.Has("sweep-ranges")) return SweepRanges(env);
  if (env.cfg.Has("ab")) return AdaptiveAb(env);

  PrintBanner("Fig. 5: hybrid YCSB scan throughput & latency vs scan length",
              env.Describe());

  YcsbOptions opts;
  opts.theta = 0.7;
  YcsbBench bench(env, opts);

  std::vector<std::string> headers = {"scan_len", "scheme", "scan_tps",
                                      "scan_avg_lat_ms", "scan_p99_lat_ms",
                                      "total_tps", "scan_abort_rate"};
  for (const std::string& h : ContentionHeaders()) headers.push_back(h);
  ReportTable table(std::move(headers));

  GiveUpGuard guard;
  const auto scan_lens = env.cfg.GetIntList("scan_lens",
                                            {10, 100, 300, 500, 1000, 1500});
  for (int64_t scan_len : scan_lens) {
    YcsbOptions cur = bench.options();
    cur.scan_length = static_cast<uint64_t>(scan_len);
    bench.Reconfigure(cur);
    for (const char* scheme : {"lrv", "gwv", "rocc"}) {
      const RunResult r = bench.Run(scheme);
      guard.Check(r, std::string(scheme) + " @ scan_len=" +
                         F(static_cast<uint64_t>(scan_len)));
      std::vector<std::string> row = {
          F(static_cast<uint64_t>(scan_len)), scheme,
          F(r.ScanThroughput(), 1),
          F(r.stats.latency_scan.Mean() / 1e6, 3),
          F(static_cast<double>(r.stats.latency_scan.Percentile(99)) / 1e6, 3),
          F(r.Throughput(), 1), F(r.stats.ScanAbortRate(), 4)};
      for (std::string& c : ContentionCells(r.stats)) row.push_back(std::move(c));
      table.AddRow(std::move(row));
      // Extended latency summary (p50/p95/p99/p99.9/stddev, plus the phase
      // breakdown when --obs ran) for the heaviest scan length per scheme.
      if (scan_len == scan_lens.back()) {
        std::printf("\nlatency summary (%s, scan_len=%lld):\n", scheme,
                    static_cast<long long>(scan_len));
        Emit(env, LatencySummaryTable(r.stats), std::string("latency_") + scheme);
      }
    }
  }
  Emit(env, table);
  return guard.Failed() ? 1 : 0;
}
