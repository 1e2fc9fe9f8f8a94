// End-to-end integration tests through the experiment harness: the runner
// produces sane statistics for every protocol, and the paper's headline
// cost relationships hold qualitatively (RV examines fewer transactions than
// GWV; LRV validation work scales with scan length).
//
// Every run uses the seeded fiber runner, so the counters these claims
// compare repeat exactly from run to run whatever the host's core count or
// load; real threads would compare two timesliced runs.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/report.h"
#include "harness/runner.h"
#include "workload/ycsb.h"

namespace rocc {
namespace {

RunResult RunYcsb(const std::string& proto, uint64_t rows, uint64_t scan_len,
                  uint32_t threads, uint64_t txns, double theta = 0.7,
                  uint32_t ranges_hint = 0) {
  Database db;
  YcsbOptions opts;
  opts.num_rows = rows;
  opts.theta = theta;
  opts.scan_length = scan_len;
  YcsbWorkload wl(opts);
  wl.Load(&db);
  auto cc = CreateProtocol(proto, &db, wl, threads, ranges_hint);
  RunOptions run;
  run.num_threads = threads;
  run.txns_per_thread = txns;
  run.warmup_txns_per_thread = 50;
  run.mode = ExecMode::kFibers;
  return RunExperiment(cc.get(), &wl, run);
}

class HarnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HarnessTest, StatsAreSane) {
  const RunResult r = RunYcsb(GetParam(), 20000, 50, 2, 400);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(r.stats.commits, r.total_txns);  // retries commit eventually
  EXPECT_GT(r.Throughput(), 0.0);
  EXPECT_GT(r.stats.scan_txn_commits, 0u);
  EXPECT_GT(r.stats.scanned_records, 0u);
  EXPECT_GT(r.stats.read_write_ns, 0u);
  EXPECT_GT(r.stats.validation_ns, 0u);
  EXPECT_GT(r.stats.latency_all.count(), 0u);
  EXPECT_EQ(r.stats.latency_all.count(), r.stats.commits);
  EXPECT_EQ(r.stats.latency_scan.count(), r.stats.scan_txn_commits);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, HarnessTest,
                         ::testing::Values("rocc", "lrv", "gwv", "mvrcc"),
                         [](const auto& pinfo) { return pinfo.param; });

// The paper's central claim (Fig. 2, Fig. 7(c)): RV filters out unrelated
// transactions, so it examines far fewer overlapping transactions per scan
// than GWV under a low-skew hybrid workload.
TEST(PaperClaims, RoccExaminesFewerTxnsThanGwv) {
  const RunResult rv = RunYcsb("rocc", 50000, 100, 4, 500);
  const RunResult gwv = RunYcsb("gwv", 50000, 100, 4, 500);
  ASSERT_GT(gwv.stats.scan_txn_commits, 0u);
  ASSERT_GT(rv.stats.scan_txn_commits, 0u);
  EXPECT_LT(rv.ValidatedTxnsPerScan() * 2, gwv.ValidatedTxnsPerScan());
}

// LRV's validation cost (records re-read) is linear in the scan length
// (§IV); ROCC's is not.
TEST(PaperClaims, LrvValidationWorkScalesWithScanLength) {
  const RunResult short_scan = RunYcsb("lrv", 50000, 20, 2, 300);
  const RunResult long_scan = RunYcsb("lrv", 50000, 400, 2, 300);
  // Records validated per committed scan txn: ~5 reads + scan_len re-reads.
  auto per_scan = [](const RunResult& r) {
    return r.stats.scan_txn_commits == 0
               ? 0.0
               : static_cast<double>(r.stats.validated_records) /
                     static_cast<double>(r.stats.commits);
  };
  EXPECT_GT(per_scan(long_scan), per_scan(short_scan) * 3);
}

// ROCC registration overhead exists but is bounded (§V-H): on a scan-free
// workload, turning registration off only removes ring traffic.
TEST(PaperClaims, RegistrationToggleOnlyAffectsRegistrations) {
  Database db1, db2;
  YcsbOptions opts;
  opts.num_rows = 20000;
  opts.scan_txn_fraction = 0.0;
  opts.read_fraction = 0.5;

  YcsbWorkload wl1(opts), wl2(opts);
  wl1.Load(&db1);
  wl2.Load(&db2);
  auto on = CreateProtocol("rocc", &db1, wl1, 2, 0, 4096, true);
  auto off = CreateProtocol("rocc", &db2, wl2, 2, 0, 4096, false);
  RunOptions run;
  run.num_threads = 2;
  run.txns_per_thread = 300;
  run.warmup_txns_per_thread = 20;
  run.mode = ExecMode::kFibers;
  const RunResult r_on = RunExperiment(on.get(), &wl1, run);
  const RunResult r_off = RunExperiment(off.get(), &wl2, run);
  EXPECT_GT(r_on.stats.registrations, 0u);
  EXPECT_EQ(r_off.stats.registrations, 0u);
  EXPECT_EQ(r_on.stats.commits, r_on.total_txns + 0u);
  EXPECT_EQ(r_off.stats.commits, r_off.total_txns + 0u);
}

// MVRCC aborts scans more often than ROCC at short scan lengths because of
// imprecise boundary ranges (§VI, Fig. 13(b)).
TEST(PaperClaims, MvrccAbortsMoreThanRocc) {
  const RunResult rv = RunYcsb("rocc", 50000, 100, 4, 500);
  const RunResult mv = RunYcsb("mvrcc", 50000, 100, 4, 500);
  EXPECT_GE(mv.stats.ScanAbortRate(), rv.stats.ScanAbortRate());
}

TEST(ReportTableTest, TextAndCsvRendering) {
  ReportTable table({"scheme", "tps", "abort"});
  table.AddRow({"ROCC", ReportTable::Fmt(12345.678, 1), ReportTable::Fmt(0.05, 3)});
  table.AddRow({"GWV", "9999.9", "0.100"});
  const std::string text = table.ToText();
  EXPECT_NE(text.find("scheme"), std::string::npos);
  EXPECT_NE(text.find("12345.7"), std::string::npos);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("scheme,tps,abort"), std::string::npos);
  EXPECT_NE(csv.find("ROCC,12345.7,0.050"), std::string::npos);
}

TEST(RunnerTest, ThreadCountScalesIssuedTxns) {
  const RunResult r1 = RunYcsb("rocc", 10000, 20, 1, 200);
  const RunResult r4 = RunYcsb("rocc", 10000, 20, 4, 200);
  EXPECT_EQ(r1.total_txns, 200u);
  EXPECT_EQ(r4.total_txns, 800u);
  EXPECT_GE(r4.stats.commits, 800u);
}

}  // namespace
}  // namespace rocc
