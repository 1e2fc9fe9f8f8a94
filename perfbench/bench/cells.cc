#include "bench/cells.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/timer.h"
#include "common/zipfian.h"
#include "harness/runner.h"
#include "mv/version_store.h"
#include "workload/tpcc/tpcc_schema.h"

namespace perfbench {

namespace {

CellSpec YcsbHybrid(Scale scale) {
  // The paper's §V-B composite at Fig. 5's long-scan end: blind 5-update
  // OLTP transactions beside 1000-key scan + 4-update bulk transactions.
  CellSpec c;
  c.name = "ycsb-hybrid";
  c.protocol = "rocc";
  c.ycsb.num_rows = scale == Scale::kFull ? 1'000'000 : 20'000;
  c.ycsb.payload_size = 64;
  c.ycsb.theta = 0.7;
  c.ycsb.ops_per_txn = 5;
  c.ycsb.read_fraction = 0.0;
  c.ycsb.scan_txn_fraction = 0.1;
  c.ycsb.scan_txn_updates = 4;
  c.ycsb.scan_length = scale == Scale::kFull ? 1000 : 100;
  c.txns_per_second = 250'000;
  c.warmup_txns = scale == Scale::kFull ? 100'000 : 1'000;
  return c;
}

CellSpec YcsbSnapshot(Scale scale) {
  // Same table at θ=0.99: read/update OLTP beside read-only bulk
  // transactions (scan + 4 point reads) served at one frozen snapshot. The
  // redo log rides on this cell because tpcc-wal, which the log was meant
  // for, fails its recovery check (see README.md).
  CellSpec c = YcsbHybrid(scale);
  c.name = "ycsb-snapshot";
  c.protocol = "rocc+mv";
  c.wal = true;
  c.ycsb.theta = 0.99;
  c.ycsb.read_fraction = 0.5;
  c.ycsb.snapshot_scans = true;
  c.ycsb.scan_txn_point_reads = 4;
  c.txns_per_second = 360'000;
  c.warmup_txns = scale == Scale::kFull ? 150'000 : 1'000;
  return c;
}

CellSpec TpccWal(Scale scale) {
  // Modified TPC-C (40/40/10 bulk/4/4/2) with a redo log whose group commit
  // acknowledges asynchronously.
  CellSpec c;
  c.name = "tpcc-wal";
  c.is_tpcc = true;
  c.protocol = "rocc";
  c.wal = true;
  c.tpcc.num_warehouses = scale == Scale::kFull ? 4 : 1;
  c.tpcc.bulk_scan_length = scale == Scale::kFull ? 3000 : 300;
  c.txns_per_second = 60'000;
  c.warmup_txns = scale == Scale::kFull ? 30'000 : 1'000;
  return c;
}

/// Checks that a full scan delivers exactly keys 0, 1, ..., n-1.
class DenseKeyCheck : public rocc::ScanConsumer {
 public:
  bool OnRecord(uint64_t key, const char* payload) override {
    (void)payload;
    if (key != count_) dense_ = false;
    count_++;
    return true;
  }
  uint64_t count() const { return count_; }
  bool dense() const { return dense_; }

 private:
  uint64_t count_ = 0;
  bool dense_ = true;
};

struct TableDigest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const TableDigest&) const = default;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

/// Order-sensitive digest of every visible row (key and payload) of every
/// table, from each primary index's full scan.
std::vector<TableDigest> DigestTables(rocc::Database* db) {
  std::vector<TableDigest> out(db->NumTables());
  for (uint32_t t = 0; t < db->NumTables(); t++) {
    TableDigest& d = out[t];
    db->GetIndex(t)->ScanRange(0, ~0ULL, [&d](uint64_t key, rocc::Row* row) {
      if (row->IsAbsent()) return true;
      uint64_t h = Mix(d.hash, key);
      const char* p = row->Data();
      uint32_t i = 0;
      for (; i + 8 <= row->payload_size; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = Mix(h, w);
      }
      uint64_t tail = 0;
      std::memcpy(&tail, p + i, row->payload_size - i);
      d.hash = Mix(h, tail);
      d.rows++;
      return true;
    });
  }
  return out;
}

void CheckYcsb(Engine& e, std::vector<std::string>* failures) {
  rocc::ConcurrencyControl* cc = e.cc.get();
  const uint64_t rows = e.ycsb()->options().num_rows;
  rocc::TxnStats sink;
  cc->AttachThread(0, &sink);
  DenseKeyCheck keys;
  rocc::TxnDescriptor* t = cc->BeginReadOnly(0);
  rocc::Status st = cc->Scan(t, e.ycsb()->table_id(), 0, 0, 0, &keys);
  if (st.ok()) {
    st = cc->Commit(t);
  } else {
    cc->Abort(t);
  }
  cc->AttachThread(0, nullptr);
  if (!st.ok()) failures->push_back("ycsb full scan did not commit");
  if (keys.count() != rows || !keys.dense()) {
    failures->push_back("ycsb full scan returned " + std::to_string(keys.count()) +
                        " rows, expected keys 0.." + std::to_string(rows - 1));
  }
  if (rocc::mv::VersionStore* vs = cc->version_store()) {
    vs->GcQuiesce(e.db.get());
    const rocc::mv::MvTelemetry tel = vs->Telemetry();
    if (tel.live_nodes() != 0 || tel.gc_locked_rows != 0) {
      failures->push_back("version store not empty after GcQuiesce: live_nodes=" +
                          std::to_string(tel.live_nodes()) + " gc_locked_rows=" +
                          std::to_string(tel.gc_locked_rows));
    }
  }
}

std::unique_ptr<rocc::Workload> MakeWorkload(const CellSpec& spec) {
  if (spec.is_tpcc) return std::make_unique<rocc::TpccWorkload>(spec.tpcc);
  return std::make_unique<rocc::YcsbWorkload>(spec.ycsb);
}

void CheckTpcc(Engine& e, std::vector<std::string>* failures) {
  if (!e.tpcc()->CheckYtdInvariant()) failures->push_back("tpcc YTD invariant");
  if (!e.tpcc()->CheckOrderInvariant()) failures->push_back("tpcc order invariant");
}

/// WAL recovery: the log, replayed into a freshly loaded database, must
/// rebuild the live image table by table. The live engine is digested and
/// freed first so the two images are never resident together.
void CheckWalRecovery(std::unique_ptr<Engine> e,
                      std::vector<std::string>* failures) {
  const std::vector<TableDigest> live = DigestTables(e->db.get());
  e->log->Stop();
  const std::string wal_dir = std::move(e->wal_dir);
  e->wal_dir.clear();
  const CellSpec spec = *e->spec;
  e.reset();

  rocc::Database fresh;
  MakeWorkload(spec)->Load(&fresh);
  rocc::RecoveryStats rs;
  const rocc::Status st = rocc::LogManager::Recover(wal_dir, &fresh, &rs);
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  if (!st.ok()) {
    failures->push_back("WAL recovery failed: " + st.ToString());
    return;
  }
  const std::vector<TableDigest> recovered = DigestTables(&fresh);
  for (size_t t = 0; t < live.size(); t++) {
    if (t >= recovered.size() || !(live[t] == recovered[t])) {
      failures->push_back("recovered table " + std::to_string(t) +
                          " differs from the live image");
    }
  }
}

/// Current resident set of this process in MiB.
double ResidentMib() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

const std::vector<std::string>& CellNames() {
  static const std::vector<std::string> names = {"ycsb-hybrid", "ycsb-snapshot",
                                                 "tpcc-wal"};
  return names;
}

std::optional<CellSpec> FindCell(const std::string& name, Scale scale) {
  if (name == "ycsb-hybrid") return YcsbHybrid(scale);
  if (name == "ycsb-snapshot") return YcsbSnapshot(scale);
  if (name == "tpcc-wal") return TpccWal(scale);
  return std::nullopt;
}

rocc::YcsbWorkload* Engine::ycsb() const {
  return spec->is_tpcc ? nullptr : static_cast<rocc::YcsbWorkload*>(workload.get());
}

rocc::TpccWorkload* Engine::tpcc() const {
  return spec->is_tpcc ? static_cast<rocc::TpccWorkload*>(workload.get()) : nullptr;
}

Engine::~Engine() {
  cc.reset();
  if (log != nullptr) log->Stop();
  if (!wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
}

std::unique_ptr<Engine> BuildEngine(const CellSpec& spec,
                                    const std::string& wal_dir) {
  auto e = std::make_unique<Engine>();
  e->spec = &spec;
  const rocc::Stopwatch watch;
  e->db = std::make_unique<rocc::Database>();
  e->workload = MakeWorkload(spec);
  e->workload->Load(e->db.get());
  if (spec.wal) {
    std::filesystem::create_directories(
        std::filesystem::path(wal_dir).parent_path());
    rocc::LogOptions lo;
    lo.log_dir = wal_dir;
    lo.sync_ack = false;
    e->log = std::make_unique<rocc::LogManager>(lo, spec.workers);
    const rocc::Status st = e->log->Open();
    if (!st.ok()) throw std::runtime_error("WAL open failed: " + st.ToString());
    e->wal_dir = wal_dir;
  }
  const double rss_before = ResidentMib();
  e->cc = rocc::CreateProtocol(spec.protocol, e->db.get(), *e->workload,
                               spec.workers);
  e->ring_mib = ResidentMib() - rss_before;
  if (e->log != nullptr) e->cc->AttachLog(e->log.get());
  e->setup_s = watch.ElapsedSeconds();
  return e;
}

std::vector<std::string> CheckAndRelease(std::unique_ptr<Engine> engine,
                                         const rocc::TxnStats& window_stats) {
  std::vector<std::string> failures;
  if (window_stats.AbortCauseSum() != window_stats.aborts) {
    failures.push_back("abort causes sum to " +
                       std::to_string(window_stats.AbortCauseSum()) +
                       ", aborts = " + std::to_string(window_stats.aborts));
  }
  if (engine->spec->is_tpcc) {
    CheckTpcc(*engine, &failures);
  } else {
    CheckYcsb(*engine, &failures);
  }
  if (engine->log != nullptr) CheckWalRecovery(std::move(engine), &failures);
  return failures;
}

IndexProbe ProbeIndex(const Engine& e, uint64_t seed) {
  constexpr uint32_t kGets = 100'000;
  constexpr uint32_t kScans = 200;
  rocc::Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  std::vector<uint64_t> keys(kGets);
  std::vector<uint64_t> starts(kScans);
  uint32_t table = 0;
  uint64_t scan_length = 0;
  if (const rocc::YcsbWorkload* y = e.ycsb()) {
    // The workload's own update-key and scan-start distributions.
    const rocc::YcsbOptions& o = y->options();
    rocc::ZipfianGenerator::MarkZetaCacheWarm(false);
    const rocc::ZipfianGenerator key_zipf(o.num_rows, o.theta);
    const rocc::ZipfianGenerator scan_zipf(
        o.num_rows, o.scan_theta < 0 ? o.theta : o.scan_theta);
    for (uint64_t& k : keys) k = key_zipf.Next(rng);
    for (uint64_t& s : starts) s = y->ClampScanStart(scan_zipf.Next(rng));
    table = y->table_id();
    scan_length = o.scan_length;
  } else {
    // Customer lookups, and customer scans placed as the bulk reward
    // transaction places them inside one warehouse.
    const rocc::TpccWorkload* t = e.tpcc();
    const uint32_t num_wh = t->options().num_warehouses;
    const uint64_t per_wh = rocc::tpcc::kCustomersPerWarehouse;
    scan_length = std::min<uint64_t>(t->options().bulk_scan_length, per_wh);
    for (uint64_t& k : keys) k = rng.Uniform(num_wh * per_wh);
    for (uint64_t& s : starts) {
      s = rng.Uniform(num_wh) * per_wh + rng.Uniform(per_wh - scan_length + 1);
    }
    table = t->tables().customer;
  }
  const rocc::OrderedIndex* index = e.db->GetIndex(table);

  IndexProbe p;
  uint64_t found = 0;
  rocc::Stopwatch watch;
  for (uint64_t k : keys) found += index->Get(k) != nullptr;
  p.get_ns = static_cast<double>(watch.ElapsedNanos()) / kGets;
  uint64_t rows = 0;
  watch.Restart();
  for (uint64_t s : starts) {
    index->ScanRange(s, s + scan_length, [&rows](uint64_t, rocc::Row*) {
      rows++;
      return true;
    });
  }
  p.scan_ns_per_row =
      rows == 0 ? 0 : static_cast<double>(watch.ElapsedNanos()) / rows;
  if (found != kGets) {
    std::fprintf(stderr, "index probe: %llu of %u keys missing\n",
                 static_cast<unsigned long long>(kGets - found), kGets);
  }
  return p;
}

}  // namespace perfbench
