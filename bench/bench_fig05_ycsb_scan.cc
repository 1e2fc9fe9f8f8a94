// Fig. 5 — Hybrid YCSB: (a) throughput of scan transactions and (b) average
// latency of scan transactions, as the scan length grows from 10 to 1500.
//
// Paper setup: 40 threads, 10M rows, low skew, 90%/10% mix. Expected shape:
// all schemes grow at first; LRV peaks around 300 keys and falls off; RV is
// best at long scans (~3x LRV, ~1.2x GWV at 1500) and within ~10% of LRV at
// very short scans (registration overhead).

#include <vector>

#include "bench_common.h"

using namespace rocc;        // NOLINT
using namespace rocc::bench; // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseEnv(argc, argv);

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
