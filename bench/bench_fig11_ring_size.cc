// Fig. 11 — Scan throughput under various sizes of the circular array:
// (a) across partitioning granularity, (b) across workload skew.
//
// Paper setup: 40 threads, scan length 100, array sizes 100..10000.
// Expected shape: array size barely matters across granularities at low
// skew; small arrays hurt under skew (hot ranges wrap their rings and force
// conservative aborts — the paper's variant blocks registration instead,
// with the same performance cliff). The paper settles on 5000 slots.

#include "bench_common.h"

using namespace rocc;        // NOLINT
using namespace rocc::bench; // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseEnv(argc, argv);
  PrintBanner("Fig. 11: RV scan throughput vs circular-array size", env.Describe());

  YcsbOptions opts;
  opts.theta = 0.7;
  opts.scan_length = 100;
  YcsbBench bench(env, opts);

  // The paper sweeps 100..10000 slots; the overlap windows of this scaled-
  // down run are smaller, so the sweep extends downward to expose the same
  // cliff (a ring smaller than the hot range's overlap window forces
  // conservative aborts, the analogue of the paper's blocked registrations).
  const auto ring_sizes =
      env.cfg.GetIntList("ring_sizes", {16, 48, 100, 500, 1000, 5000, 10000});

  std::printf("(a) varying partitioning granularity, low skew\n");
  ReportTable ta({"ring_size", "num_ranges", "scan_tps", "scan_abort_rate"});
  const uint32_t default_ranges = bench.workload().DefaultNumRanges();
  for (uint32_t n : {default_ranges / 16, default_ranges, default_ranges * 4}) {
    if (n == 0) continue;
    for (int64_t ring : ring_sizes) {
      const RunResult r = bench.Run("rocc", n, static_cast<uint32_t>(ring));
      ta.AddRow({F(static_cast<uint64_t>(ring)), F(static_cast<uint64_t>(n)),
                 F(r.ScanThroughput(), 1), F(r.stats.ScanAbortRate(), 4)});
    }
  }
  Emit(env, ta);

  std::printf("\n(b) varying workload skew, default granularity\n");
  ReportTable tb({"ring_size", "skew_theta", "scan_tps", "scan_abort_rate"});
  for (double theta : env.cfg.GetDoubleList("thetas", {0.0, 0.7, 0.88, 1.04})) {
    YcsbOptions cur = bench.options();
    cur.theta = theta;
    bench.Reconfigure(cur);
    for (int64_t ring : ring_sizes) {
      const RunResult r = bench.Run("rocc", 0, static_cast<uint32_t>(ring));
      tb.AddRow({F(static_cast<uint64_t>(ring)), F(theta, 2),
                 F(r.ScanThroughput(), 1), F(r.stats.ScanAbortRate(), 4)});
    }
  }
  Emit(env, tb);
  return 0;
}
