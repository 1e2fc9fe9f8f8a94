#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/cc.h"
#include "log/log_manager.h"
#include "storage/database.h"
#include "workload/tpcc/tpcc.h"
#include "workload/ycsb.h"

namespace perfbench {

/// Full size is what the benchmark measures; small size is for the tests of
/// the benchmark's own code.
enum class Scale { kFull, kSmall };

/// One benchmark workload: a table, a transaction mix and an engine
/// configuration. Every cell runs the static range layout with the tuner off
/// and lock=cas (the engine defaults).
struct CellSpec {
  std::string name;
  bool is_tpcc = false;
  rocc::YcsbOptions ycsb;
  rocc::TpccOptions tpcc;
  std::string protocol;  ///< CreateProtocol name ("rocc", "rocc+mv")
  bool wal = false;      ///< redo log with asynchronous acknowledgements
  uint32_t workers = 3;
  /// Fixed work: a run of S seconds claims S * txns_per_second logical
  /// transactions whatever the speed of the engine, so the window is about S
  /// seconds long on the reference host and the data a run inserts (and
  /// with it peak memory) does not depend on speed.
  uint64_t txns_per_second = 0;
  uint64_t warmup_txns = 0;
};

const std::vector<std::string>& CellNames();
std::optional<CellSpec> FindCell(const std::string& name, Scale scale);

/// A loaded database with its protocol (and WAL when the cell has one).
/// Destruction releases the protocol, stops the log and removes the WAL
/// directory, then frees the workload and the database.
struct Engine {
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const CellSpec* spec = nullptr;
  std::unique_ptr<rocc::Database> db;
  std::unique_ptr<rocc::Workload> workload;
  std::string wal_dir;
  std::unique_ptr<rocc::LogManager> log;
  std::unique_ptr<rocc::ConcurrencyControl> cc;
  double setup_s = 0;   ///< load + CreateProtocol + WAL open
  double ring_mib = 0;  ///< resident-set growth across CreateProtocol

  rocc::YcsbWorkload* ycsb() const;
  rocc::TpccWorkload* tpcc() const;
};

/// Load the cell's data and build its engine. `wal_dir` must not exist yet
/// when the cell has a WAL; it is created by the log.
std::unique_ptr<Engine> BuildEngine(const CellSpec& spec,
                                    const std::string& wal_dir);

/// Post-window correctness gate on a quiescent engine. Consumes the engine:
/// the WAL recovery check replays the log into a freshly loaded database
/// after the live one has been digested and freed. Returns one message per
/// failed check (empty = pass).
std::vector<std::string> CheckAndRelease(std::unique_ptr<Engine> engine,
                                         const rocc::TxnStats& window_stats);

/// Single-thread index probe over the workload's own key and scan-start
/// distributions (quiescent engine).
struct IndexProbe {
  double get_ns = 0;
  double scan_ns_per_row = 0;
};
IndexProbe ProbeIndex(const Engine& engine, uint64_t seed);

}  // namespace perfbench
