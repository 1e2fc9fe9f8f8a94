// Tests of the benchmark's own code: the timing decorator, the OLTP/bulk
// split, the metric names against BENCHMARK.json and the percentile refusal.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "bench/cells.h"
#include "bench/closed_loop.h"
#include "bench/measure.h"
#include "bench/traced_cc.h"

namespace perfbench {
namespace {

constexpr char kWalRoot[] = "perfbench_test_wal";

CellSpec SmallSingleWorker(const std::string& name) {
  std::optional<CellSpec> spec = FindCell(name, Scale::kSmall);
  EXPECT_TRUE(spec.has_value()) << name;
  spec->workers = 1;
  return *spec;
}

LoopResult RunSmall(const CellSpec& spec, bool traced, uint64_t txns) {
  const std::string wal =
      std::string(kWalRoot) + "/" + spec.name + (traced ? "-traced" : "-plain");
  std::unique_ptr<Engine> e = BuildEngine(spec, wal);
  TracedCc decorator(e->cc.get(), spec.workers);
  LoopOptions lo;
  lo.workers = spec.workers;
  lo.warmup_txns = spec.warmup_txns;
  lo.txns = txns;
  lo.slices = kSlices;
  lo.seed = 42;
  lo.traced = traced ? &decorator : nullptr;
  rocc::ConcurrencyControl* cc =
      traced ? static_cast<rocc::ConcurrencyControl*>(&decorator) : e->cc.get();
  return RunClosedLoop(cc, e->workload.get(), lo);
}

class CellTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CellTest, DecoratorIsTransparent) {
  const CellSpec spec = SmallSingleWorker(GetParam());
  const LoopResult plain = RunSmall(spec, false, 3000);
  const LoopResult traced = RunSmall(spec, true, 3000);
  EXPECT_EQ(plain.stats.commits, traced.stats.commits);
  EXPECT_EQ(plain.stats.aborts, traced.stats.aborts);
  EXPECT_EQ(plain.stats.validated_txns, traced.stats.validated_txns);
  EXPECT_EQ(plain.stats.registrations, traced.stats.registrations);
  EXPECT_EQ(plain.stats.scanned_records, traced.stats.scanned_records);
  EXPECT_GT(plain.stats.scanned_records, 0u);
  // The path each transaction took: snapshot vs validated reads, the
  // version store and the log.
  EXPECT_EQ(plain.stats.scan_txn_commits, traced.stats.scan_txn_commits);
  EXPECT_EQ(plain.stats.validated_records, traced.stats.validated_records);
  EXPECT_EQ(plain.stats.mv_snapshot_scans, traced.stats.mv_snapshot_scans);
  EXPECT_EQ(plain.stats.mv_snapshot_txns, traced.stats.mv_snapshot_txns);
  EXPECT_EQ(plain.stats.mv_versions_installed, traced.stats.mv_versions_installed);
  EXPECT_EQ(plain.stats.log_records, traced.stats.log_records);
}

TEST_P(CellTest, BulkSplitAgreesWithScanTxnCommits) {
  const CellSpec spec = SmallSingleWorker(GetParam());
  LoopResult r = RunSmall(spec, false, 3000);
  ASSERT_EQ(r.gave_up, 0u);
  ASSERT_EQ(r.slices.size(), kSlices);
  EXPECT_GT(r.committed_bulk, 0u);
  EXPECT_EQ(r.committed_bulk, r.stats.scan_txn_commits);
  uint64_t bulk = 0, oltp = 0, ns = 0;
  for (const Slice& s : r.slices) {
    bulk += r.Bulk(s).size();
    oltp += r.Oltp(s).size();
    for (uint32_t v : r.Bulk(s)) ns += v;
    for (uint32_t v : r.Oltp(s)) ns += v;
  }
  EXPECT_EQ(bulk, r.stats.scan_txn_commits);
  EXPECT_EQ(bulk + oltp, 3000u);
  EXPECT_EQ(ns, r.txn_ns_total);
}

INSTANTIATE_TEST_SUITE_P(Cells, CellTest,
                         ::testing::Values("ycsb-hybrid", "ycsb-snapshot",
                                           "tpcc-wal"),
                         [](const auto& param_info) {
                           std::string s = param_info.param;
                           for (char& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

/// Draws one plan number per RunTxn call. With `give_up_every` = k, the first
/// submission of every k-th plan spends a zero retry budget (a give-up), and
/// every later submission commits an empty transaction; with k = 0 every call
/// gives up. Records the plan of each call.
class GiveUpWorkload : public rocc::Workload {
 public:
  explicit GiveUpWorkload(uint64_t give_up_every) : every_(give_up_every) {}
  const char* name() const override { return "give-up"; }
  void Load(rocc::Database*) override {}
  std::vector<rocc::RangeConfig> RangeConfigs(uint32_t, uint32_t) const override {
    return {};
  }
  rocc::Status RunTxn(rocc::ConcurrencyControl* cc, uint32_t tid,
                      rocc::Rng& rng) override {
    const uint64_t plan = rng.Next();
    const bool give_up =
        every_ == 0 || (plan % every_ == 0 && seen_.insert(plan).second);
    calls_.push_back(plan);
    return rocc::RunWithRetries(
        cc, tid, false,
        [&] {
          if (give_up) return rocc::Status::Aborted();
          return cc->Commit(cc->Begin(tid));
        },
        rng, give_up ? 0 : 1000);
  }
  const std::vector<uint64_t>& calls() const { return calls_; }

 private:
  const uint64_t every_;
  std::set<uint64_t> seen_;
  std::vector<uint64_t> calls_;
};

TEST(ClosedLoop, GiveUpIsResubmittedWithTheSamePlan) {
  const CellSpec spec = SmallSingleWorker("ycsb-hybrid");
  std::unique_ptr<Engine> e = BuildEngine(spec, "");
  GiveUpWorkload flaky(4);
  LoopOptions lo;
  lo.txns = 2000;
  lo.workers = 1;
  const LoopResult r = RunClosedLoop(e->cc.get(), &flaky, lo);
  EXPECT_EQ(r.attempted, 2000u);
  EXPECT_EQ(r.committed, 2000u);
  EXPECT_EQ(r.bad_status, 0u);
  EXPECT_GT(r.gave_up, 300u);
  EXPECT_EQ(r.gave_up, r.stats.give_ups);
  EXPECT_EQ(r.calls, r.attempted + r.gave_up);
  // Each give-up is followed by the same plan; no plan gives up twice.
  const std::vector<uint64_t>& calls = flaky.calls();
  uint64_t repeats = 0;
  for (size_t i = 1; i < calls.size(); i++) repeats += calls[i] == calls[i - 1];
  EXPECT_EQ(repeats, r.gave_up);
}

TEST(ClosedLoop, TransactionFailsAfterMaxSubmissions) {
  const CellSpec spec = SmallSingleWorker("ycsb-hybrid");
  std::unique_ptr<Engine> e = BuildEngine(spec, "");
  GiveUpWorkload never(0);
  LoopOptions lo;
  lo.txns = 5;
  lo.workers = 1;
  const LoopResult r = RunClosedLoop(e->cc.get(), &never, lo);
  EXPECT_EQ(r.attempted, 5u);
  EXPECT_EQ(r.committed, 0u);
  EXPECT_EQ(r.bad_status, 0u);
  EXPECT_EQ(r.calls, 5u * kMaxSubmissions);
  EXPECT_EQ(r.gave_up, r.calls);
}

std::string ReadBenchmarkJson() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Name -> unit of the entries of one array section ("workloads",
/// "end_to_end", "per_layer") of BENCHMARK.json; workloads have no unit.
/// Entries hold no brackets, so the section ends at the first ']' after its
/// key.
std::map<std::string, std::string> Section(const std::string& json,
                                           const std::string& section) {
  std::map<std::string, std::string> entries;
  const size_t begin = json.find("\"" + section + "\"");
  if (begin == std::string::npos) return entries;
  const size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  static const std::regex entry_re(
      "\"name\":\\s*\"([^\"]+)\"(,\\s*\"unit\":\\s*\"([^\"]+)\")?");
  for (std::sregex_iterator it(body.begin(), body.end(), entry_re), last;
       it != last; ++it) {
    entries[(*it)[1]] = (*it)[3];
  }
  return entries;
}

std::map<std::string, std::string> Printed(const RunReport& r) {
  std::map<std::string, std::string> printed;
  static const std::regex valid("[A-Za-z0-9_.-]+");
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(std::regex_match(m.name, valid)) << m.name;
    EXPECT_TRUE(printed.emplace(m.name, m.unit).second) << "duplicate " << m.name;
  }
  return printed;
}

TEST(Metrics, NamesMatchBenchmarkJson) {
  const std::string json = ReadBenchmarkJson();
  ASSERT_FALSE(json.empty()) << "cannot read " << PERFBENCH_JSON;
  const auto end_to_end = Section(json, "end_to_end");
  const auto per_layer = Section(json, "per_layer");
  ASSERT_FALSE(end_to_end.empty());
  ASSERT_FALSE(per_layer.empty());
  for (const auto& [w, unit] : Section(json, "workloads")) {
    EXPECT_TRUE(FindCell(w, Scale::kFull).has_value()) << w;
  }

  for (const std::string& cell : CellNames()) {
    RunConfig config;
    config.spec = SmallSingleWorker(cell);
    config.seed = 7;
    // About 1200 bulk samples per slice: a supported bulk p99 in each.
    config.txns = 120'000;
    config.wal_root = std::string(kWalRoot) + "/" + cell;

    const RunReport e2e = MeasureEndToEnd(config);
    EXPECT_TRUE(e2e.correct()) << cell << ": " << ::testing::PrintToString(e2e.failures);
    EXPECT_TRUE(e2e.refused.empty()) << ::testing::PrintToString(e2e.refused);
    EXPECT_EQ(Printed(e2e), end_to_end) << cell;
    for (const Metric& m : e2e.metrics) EXPECT_GT(m.value, 0) << m.name;

    const RunReport layers = MeasurePerLayer(config);
    EXPECT_TRUE(layers.correct()) << cell << ": " << ::testing::PrintToString(layers.failures);
    EXPECT_EQ(Printed(layers), per_layer) << cell;

    // The layer totals sum to the traced mean transaction time.
    auto v = [&layers](const char* name) {
      const Metric* m = layers.Find(name);
      EXPECT_NE(m, nullptr) << name;
      return m != nullptr ? m->value : 0.0;
    };
    const double sum = v("cc.ns_per_txn") + v("core.scan_ns_per_txn") +
                       v("mv.ns_per_txn") + v("harness.retry_wait_ns_per_txn") +
                       v("workload.self_ns_per_txn");
    EXPECT_NEAR(sum, v("trace.txn_ns"), 1e-6 * v("trace.txn_ns")) << cell;
    EXPECT_GT(v("workload.self_ns_per_txn"), 0) << cell;
  }
}

TEST(Percentile, RefusedWithFewerThanTenSamplesBeyond) {
  std::vector<uint32_t> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1);
  const std::optional<Percentile> p50 = TakePercentile(hundred, 0.50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value_ns, 50u);
  EXPECT_EQ(p50->beyond, 50u);
  EXPECT_FALSE(TakePercentile(hundred, 0.99).has_value());

  std::vector<uint32_t> almost(999);
  std::iota(almost.begin(), almost.end(), 1);
  EXPECT_FALSE(TakePercentile(almost, 0.99).has_value());  // 9 beyond

  std::vector<uint32_t> enough(1000);
  std::iota(enough.begin(), enough.end(), 1);
  const std::optional<Percentile> p99 = TakePercentile(enough, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value_ns, 990u);
  EXPECT_EQ(p99->beyond, 10u);
  EXPECT_EQ(p99->samples, 1000u);

  std::vector<uint32_t> empty;
  EXPECT_FALSE(TakePercentile(empty, 0.50).has_value());
}

TEST(Percentile, RunRefusesUnsupportedTail) {
  RunConfig config;
  config.spec = SmallSingleWorker("ycsb-hybrid");
  // About 1350 OLTP and 150 bulk samples per slice: the OLTP p99 and the
  // bulk p50 are supported, the bulk p99 is not.
  config.txns = 15'000;
  const RunReport r = MeasureEndToEnd(config);
  EXPECT_EQ(r.Find("bulk_p99_us"), nullptr);
  ASSERT_EQ(r.refused.size(), 1u);
  EXPECT_NE(r.refused[0].find("bulk_p99_us"), std::string::npos);
  EXPECT_NE(r.Find("bulk_p50_us"), nullptr);
}

}  // namespace
}  // namespace perfbench
