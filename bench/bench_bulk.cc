// Bulk-transaction scaling: throughput as the bulk write-set size grows from
// 64 to 4096 deferred updates per transaction, for every OCC-family scheme.
//
// The paper's composite workload (§IV) pairs short point transactions with
// bulk processing transactions that scan a key block and update 1k-10k
// records. This benchmark isolates how the transaction-local data structures
// and the validators scale with that write-set size W: quadratic own-write
// overlays or per-writer write-set walks show up here as a collapse of
// bulk_tps between W=256 and W=4096.
//
// Flags (besides the common set in bench_common.h):
//   --writes L     comma list of bulk write-set sizes   (default 64,256,1024,4096)
//   --mixes  L     comma list of bulk txn fractions     (default 0.0,0.1,0.5)
//                  (0.0 = pure point transactions: the small-write-set
//                  regression guard)
//   --schemes S    comma list from lrv,gwv,rocc,mvrcc   (default all)
//   --point-ops N  operations per point transaction     (default 8)
//
// A bulk transaction scans a uniformly placed block of W keys (aggregating
// the payloads) and then updates every key in the block; a point transaction
// performs N Zipfian point reads/updates. Emit one table per mix so
// `--json BENCH_bulk.json` yields a machine-readable trajectory.

#include <algorithm>
#include <cstring>

#include "bench_common.h"

using namespace rocc;        // NOLINT
using namespace rocc::bench; // NOLINT

namespace {

class SumConsumer : public ScanConsumer {
 public:
  bool OnRecord(uint64_t key, const char* payload) override {
    (void)key;
    uint64_t v;
    std::memcpy(&v, payload, sizeof(v));
    sum_ += v;
    return true;
  }
  uint64_t sum() const { return sum_; }

 private:
  uint64_t sum_ = 0;
};

struct BulkOptions {
  uint64_t num_rows = 200'000;
  uint32_t payload_size = 64;
  double theta = 0.7;           // point-op skew, the paper's "low skew"
  uint32_t point_ops = 8;
  double point_read_fraction = 0.5;
  double bulk_fraction = 0.5;   // share of bulk transactions
  uint32_t bulk_writes = 1024;  // W: records scanned + updated per bulk txn
  uint32_t max_retries = 1000;
};

/// Composite workload: point transactions + block-structured bulk
/// transactions whose write set is exactly `bulk_writes` entries.
class BulkWorkload : public Workload {
 public:
  explicit BulkWorkload(BulkOptions options)
      : options_(options),
        zipf_(options.num_rows, options.theta),
        thread_bufs_(EpochManager::kMaxThreads) {}

  const char* name() const override { return "bulk-composite"; }

  void Load(Database* db) override {
    Schema schema({{"field", options_.payload_size, 0}});
    table_id_ = db->CreateTable("bulktable", std::move(schema));
    std::vector<char> payload(options_.payload_size, 0);
    for (uint64_t key = 0; key < options_.num_rows; key++) {
      std::memcpy(payload.data(), &key, sizeof(key));
      db->LoadRow(table_id_, key, payload.data());
    }
  }

  /// Rebind to an already-loaded table with new generator parameters.
  void Adopt(uint32_t table_id) { table_id_ = table_id; }
  uint32_t table_id() const { return table_id_; }

  std::vector<RangeConfig> RangeConfigs(uint32_t ranges_hint,
                                        uint32_t ring_capacity) const override {
    RangeConfig rc;
    rc.table_id = table_id_;
    rc.key_min = 0;
    rc.key_max = options_.num_rows;
    // Match the paper's ~610-key logical ranges (10M keys / 16384 ranges).
    rc.num_ranges =
        ranges_hint != 0
            ? ranges_hint
            : static_cast<uint32_t>(std::clamp<uint64_t>(
                  options_.num_rows / 610, 1, 1u << 20));
    rc.ring_capacity = ring_capacity;
    return {rc};
  }

  Status RunTxn(ConcurrencyControl* cc, uint32_t thread_id, Rng& rng) override {
    std::vector<char>& buf = thread_bufs_[thread_id];
    if (buf.size() < options_.payload_size) buf.resize(options_.payload_size);

    const bool is_bulk = rng.NextDouble() < options_.bulk_fraction;
    uint64_t block = 0;
    struct PointOp {
      bool is_write;
      uint64_t key;
    } point[64];
    uint32_t n_point = 0;
    if (is_bulk) {
      const uint64_t w = options_.bulk_writes;
      block = w >= options_.num_rows ? 0 : rng.Uniform(options_.num_rows - w);
    } else {
      n_point = std::min<uint32_t>(options_.point_ops, 64);
      for (uint32_t i = 0; i < n_point; i++) {
        point[i].is_write = rng.NextDouble() >= options_.point_read_fraction;
        point[i].key = zipf_.Next(rng);
      }
    }

    return RunWithRetries(
        cc, thread_id, is_bulk,
        [&]() -> Status {
          TxnDescriptor* t = cc->Begin(thread_id);
          t->is_scan_txn = is_bulk;
          if (is_bulk) {
            SumConsumer consumer;
            const uint64_t end = block + options_.bulk_writes;
            Status st = cc->Scan(t, table_id_, block, end, 0, &consumer);
            if (!st.ok()) {
              cc->Abort(t);
              return Status::Aborted();
            }
            for (uint64_t key = block; key < end; key++) {
              const uint64_t value = consumer.sum() + key;
              st = cc->Update(t, table_id_, key, &value, sizeof(value), 0);
              if (!st.ok()) {
                cc->Abort(t);
                return Status::Aborted();
              }
            }
          } else {
            for (uint32_t i = 0; i < n_point; i++) {
              Status st;
              if (point[i].is_write) {
                const uint64_t value = rng.Next();
                st = cc->Update(t, table_id_, point[i].key, &value, sizeof(value), 0);
              } else {
                st = cc->Read(t, table_id_, point[i].key, buf.data());
              }
              if (!st.ok()) {
                cc->Abort(t);
                return Status::Aborted();
              }
            }
          }
          return cc->Commit(t);
        },
        rng, options_.max_retries);
  }

 private:
  BulkOptions options_;
  ZipfianGenerator zipf_;
  uint32_t table_id_ = 0;
  std::vector<std::vector<char>> thread_bufs_;
};

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = ParseEnv(argc, argv);
  // Bulk transactions are orders of magnitude heavier than YCSB point txns;
  // default to a smaller per-thread count than the common quick scale.
  if (!env.cfg.Has("threads")) env.threads = 8;
  if (!env.cfg.Has("rows")) env.rows = 200'000;
  if (!env.cfg.Has("txns")) env.txns_per_thread = 32;
  if (!env.cfg.Has("warmup")) env.warmup = 4;
  PrintBanner("Bulk write-set scaling: throughput vs bulk write-set size",
              env.Describe());

  const auto writes = env.cfg.GetIntList("writes", {64, 256, 1024, 4096});
  const auto mixes = env.cfg.GetDoubleList("mixes", {0.0, 0.1, 0.5});
  std::vector<std::string> schemes;
  {
    const std::string list = env.cfg.GetString("schemes", "lrv,gwv,rocc,mvrcc");
    size_t pos = 0;
    while (pos < list.size()) {
      const size_t comma = list.find(',', pos);
      const size_t end = comma == std::string::npos ? list.size() : comma;
      if (end > pos) schemes.push_back(list.substr(pos, end - pos));
      pos = end + 1;
    }
  }

  BulkOptions base;
  base.num_rows = env.rows;
  base.point_ops = static_cast<uint32_t>(env.cfg.GetInt("point-ops", 8));

  // Load once; the workload never inserts or deletes, so the table can be
  // adopted by reconfigured generators across every sweep point.
  Database db;
  uint32_t table_id;
  {
    BulkWorkload loader(base);
    loader.Load(&db);
    table_id = loader.table_id();
  }

  GiveUpGuard guard;
  for (double mix : mixes) {
    std::vector<std::string> headers = {
        "bulk_writes", "mix", "scheme", "total_tps", "bulk_tps",
        "point_tps", "abort_rate", "bulk_abort_rate",
        "bulk_p50_ms", "bulk_p99_ms", "validated_txns_per_scan"};
    for (const std::string& h : AbortBreakdownHeaders()) headers.push_back(h);
    for (const std::string& h : ContentionHeaders()) headers.push_back(h);
    ReportTable table(std::move(headers));
    // Pure point mix: the write-set size never varies, one sweep point.
    const std::vector<int64_t> sweep =
        mix == 0.0 ? std::vector<int64_t>{static_cast<int64_t>(base.point_ops)}
                   : writes;
    for (int64_t w : sweep) {
      BulkOptions opts = base;
      opts.bulk_fraction = mix;
      opts.bulk_writes = static_cast<uint32_t>(w);
      BulkWorkload workload(opts);
      workload.Adopt(table_id);
      for (const std::string& scheme : schemes) {
        auto cc = CreateProtocol(scheme, &db, workload, env.threads);
        RunOptions run;
        run.num_threads = env.threads;
        run.txns_per_thread = env.txns_per_thread;
        run.warmup_txns_per_thread = env.warmup;
        std::unique_ptr<LogManager> log = OpenRunLog(env, env.threads);
        run.log = log.get();
        const RunResult r = RunExperiment(cc.get(), &workload, run);
        if (log != nullptr) log->Stop();
        EmitProm(env, r.stats);
        const double bulk_tps = r.ScanThroughput();
        guard.Check(r, scheme + " @ mix=" + F(mix, 2) + " w=" +
                           F(static_cast<uint64_t>(w)));
        std::vector<std::string> row = {
            F(static_cast<uint64_t>(w)), F(mix, 2), scheme,
            F(r.Throughput(), 1), F(bulk_tps, 1),
            F(r.Throughput() - bulk_tps, 1),
            F(r.stats.AbortRate(), 4), F(r.stats.ScanAbortRate(), 4),
            F(static_cast<double>(r.stats.latency_scan.Percentile(50)) / 1e6, 3),
            F(static_cast<double>(r.stats.latency_scan.Percentile(99)) / 1e6, 3),
            F(r.ValidatedTxnsPerScan(), 1)};
        for (std::string& c : AbortBreakdownCells(r.stats)) row.push_back(std::move(c));
        for (std::string& c : ContentionCells(r.stats)) row.push_back(std::move(c));
        table.AddRow(std::move(row));
        // Extended latency summary (all/scan/durable percentiles + stddev,
        // plus the phase breakdown when --obs ran) at the heaviest sweep
        // point of each mix.
        if (w == sweep.back()) {
          std::printf("\nlatency summary (%s, mix=%s, W=%lld):\n",
                      scheme.c_str(), F(mix, 2).c_str(),
                      static_cast<long long>(w));
          Emit(env, LatencySummaryTable(r.stats),
               "latency_mix_" + F(mix, 2) + "_" + scheme);
        }
      }
    }
    Emit(env, table, "bulk_mix_" + F(mix, 2));
  }
  return guard.Failed() ? 1 : 0;
}
