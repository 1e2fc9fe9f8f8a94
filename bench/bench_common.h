#pragma once

// Shared scaffolding for the per-figure benchmark binaries.
//
// Every binary accepts:
//   --paper           use the paper's full-scale parameters (10M-row YCSB,
//                     100k transactions, 40 threads); default is a quick
//                     scale sized for a laptop/CI container
//   --threads N       worker threads
//   --rows N          YCSB table size
//   --txns N          measured transactions per thread
//   --warmup N        warmup transactions per thread
//   --csv [file]      additionally print CSV blocks; with a path, also
//                     append them to that file
//   --json FILE       machine-readable report: every emitted table is added
//                     to FILE (rewritten after each table, so the file is
//                     valid JSON even mid-sweep)
//   --log-dir D       enable durability: group-commit WAL under D (one
//                     subdirectory per measured run)
//   --group-commit-us N   flusher batching interval (default 200)
//   --no-durability   with --log-dir: append records but acknowledge
//                     commits from memory (no fsync wait)
//   --obs             enable the flight recorder (phase histograms + trace
//                     rings); implied by --trace / --prom
//   --obs-sample N    trace 1 in N transaction attempts (default 64; 1 =
//                     every txn)
//   --obs-ring N      events per worker trace ring (default 8192)
//   --trace FILE      dump the trace rings as Chrome trace-event JSON to
//                     FILE at exit (open in ui.perfetto.dev); SIGUSR1 dumps
//                     mid-run
//   --prom FILE       write a Prometheus text snapshot of the merged run
//                     stats to FILE (rewritten after every measured run)
//   --prom-stream-ms N    with --prom: additionally stream the trace rings
//                     to FILE every N ms while the run is in progress
//                     (WAL/range/version-GC counters derived incrementally
//                     from the rings; implies --obs)
//   --http-port N     serve the live observability plane on 127.0.0.1:N
//                     (GET /metrics /vars /healthz /trace?ms=N /config,
//                     POST /config); implies --obs. 0 (default) = off: no
//                     socket, no thread
//   --obs-slo-us N    tail-latency SLO in microseconds: attempts slower
//                     than this are force-captured into the trace rings
//                     even when unsampled, and attributed to their slowest
//                     phase (rocc_slo_violations_total); implies --obs
//   --watchdog-ms N   start the stall watchdog: workers parked in one
//                     phase longer than N ms are reported as kStall
//                     events; implies --obs. The watchdog thread also
//                     applies SIGHUP knob reloads and SIGUSR1 trace dumps
//   --knob-file F     apply "name=value" knob overrides from F at startup
//                     and re-apply on SIGHUP (drained by the watchdog)
//
// Quick-scale defaults keep every range-size/scan-length RATIO of the paper
// intact (e.g. 610-key logical ranges), so curve shapes are comparable even
// though absolute throughput is not.

#include <sys/stat.h>

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include <functional>
#include <mutex>
#include <vector>

#include "common/config.h"
#include "core/rocc.h"
#include "harness/knobs.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "log/log_manager.h"
#include "obs/chrome_trace.h"
#include "obs/http_server.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "obs/watchdog.h"
#include "workload/tpcc/tpcc.h"
#include "workload/ycsb.h"

namespace rocc {
namespace bench {

struct BenchEnv {
  Config cfg;
  bool paper = false;
  bool csv = false;
  std::string csv_file;   // --csv <path>: CSV blocks are also appended here
  std::string json_file;  // --json <path>: JSON report rewritten per table
  std::string binary;     // argv[0] basename, stamped into the JSON report
  std::string log_dir;   // --log-dir: durability on, WALs under this dir
  uint32_t group_commit_us = 200;
  bool no_durability = false;  // --no-durability: async log, no ack wait
  bool obs = false;            // --obs: flight recorder installed
  uint32_t obs_sample = 64;    // --obs-sample: trace 1 in N txn attempts
  uint32_t obs_ring = 1u << 13;  // --obs-ring: events per worker ring
  std::string trace_file;      // --trace: Chrome trace JSON dumped at exit
  std::string prom_file;       // --prom: Prometheus snapshot per run
  uint32_t prom_stream_ms = 0;  // --prom-stream-ms: live streaming period
  uint16_t http_port = 0;      // --http-port: observability plane (0 = off)
  uint32_t obs_slo_us = 0;     // --obs-slo-us: tail-latency capture threshold
  uint32_t watchdog_ms = 0;    // --watchdog-ms: stall threshold (0 = off)
  std::string knob_file;       // --knob-file: startup + SIGHUP knob overrides
  // Quick scale keeps the paper's 40 workers (cheap under the fiber runner)
  // but shrinks the table and transaction counts.
  uint32_t threads = 40;
  uint64_t rows = 1'000'000;
  uint64_t txns_per_thread = 400;
  uint64_t warmup = 50;

  std::string Describe() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "scale=%s threads=%u rows=%llu txns/thread=%llu",
                  paper ? "paper" : "quick", threads,
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(txns_per_thread));
    return buf;
  }
};

/// Live Prometheus streamer installed by ParseEnv when --prom-stream-ms is
/// set (null otherwise); EmitProm feeds it the accumulated run stats so every
/// rewrite embeds them next to the stream-derived counters.
inline obs::PrometheusStreamer*& PromStreamer() {
  static obs::PrometheusStreamer* streamer = nullptr;
  return streamer;
}

/// Stall watchdog started by ParseEnv when --watchdog-ms is set (null
/// otherwise); /vars reads its counter.
inline obs::StallWatchdog*& BenchWatchdog() {
  static obs::StallWatchdog* watchdog = nullptr;
  return watchdog;
}

/// Observability HTTP server started by ParseEnv when --http-port is set.
inline obs::HttpServer*& BenchHttpServer() {
  static obs::HttpServer* server = nullptr;
  return server;
}

// --- live per-range telemetry source for /vars -----------------------------
//
// The protocol instance only exists while a measurement is set up, so the
// bench scaffolding publishes a closure over it for the duration of each run
// (LiveRangeScope below) and the /vars handler calls through it. The mutex
// guards the closure swap against a concurrent scrape.

inline std::mutex& LiveRangeMutex() {
  static std::mutex mu;
  return mu;
}

inline std::function<std::vector<RangeTelemetry>(size_t)>& LiveRangeFn() {
  static std::function<std::vector<RangeTelemetry>(size_t)> fn;
  return fn;
}

inline std::vector<RangeTelemetry> CollectLiveRanges(size_t top_n) {
  std::lock_guard<std::mutex> g(LiveRangeMutex());
  if (!LiveRangeFn()) return {};
  return LiveRangeFn()(top_n);
}

/// Publishes the protocol's range telemetry for the scope of one run when
/// the protocol is ROCC-family (Rocc or Mvrcc); a no-op for the others.
class LiveRangeScope {
 public:
  explicit LiveRangeScope(ConcurrencyControl* cc) {
    Rocc* rocc = dynamic_cast<Rocc*>(cc);
    if (rocc == nullptr) return;
    std::lock_guard<std::mutex> g(LiveRangeMutex());
    LiveRangeFn() = [rocc](size_t top_n) {
      return rocc->LiveRangeTelemetry(top_n);
    };
  }
  ~LiveRangeScope() {
    std::lock_guard<std::mutex> g(LiveRangeMutex());
    LiveRangeFn() = nullptr;
  }
};

namespace detail {
inline void VarsAppendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
inline void VarsAppendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}
}  // namespace detail

/// The GET /vars document: merged live run counters, SLO attribution, stall
/// count, every knob's current value, and the per-range contention heatmap
/// (range_id × AbortReason) of the running protocol.
inline std::string BuildVarsJson(const std::string& binary) {
  using detail::VarsAppendf;
  using ull = unsigned long long;
  const TxnStats s = CollectLiveStats();
  std::string out;
  out.reserve(4096);
  VarsAppendf(&out, "{\"binary\":\"%s\",\"live_run\":%s", binary.c_str(),
              LiveRunActive() ? "true" : "false");
  VarsAppendf(&out,
              ",\"commits\":%llu,\"aborts\":%llu,\"abort_rate\":%.6f,"
              "\"scan_commits\":%llu,\"scan_aborts\":%llu,\"give_ups\":%llu,"
              "\"escalations\":%llu,\"durable_acks\":%llu",
              static_cast<ull>(s.commits), static_cast<ull>(s.aborts),
              s.AbortRate(), static_cast<ull>(s.scan_txn_commits),
              static_cast<ull>(s.scan_txn_aborts), static_cast<ull>(s.give_ups),
              static_cast<ull>(s.escalations), static_cast<ull>(s.durable_acks));
  out += ",\"aborts_by_reason\":{";
  for (size_t c = 0; c < kNumAbortCauses; c++) {
    VarsAppendf(&out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                AbortReasonName(kAbortCauses[c]),
                static_cast<ull>(AbortCauseCount(s, kAbortCauses[c])));
  }
  out += "}";
  VarsAppendf(&out, ",\"slo_violations\":%llu,\"slo_by_slowest_phase\":{",
              static_cast<ull>(s.SloViolationTotal()));
  for (uint32_t p = 0; p < TxnStats::kNumSloPhases; p++) {
    uint64_t row = 0;
    for (uint32_t c = 0; c <= kNumAbortCauses; c++) row += s.slo_violations[p][c];
    VarsAppendf(&out, "%s\"%s\":%llu", p == 0 ? "" : ",",
                obs::PhaseName(static_cast<obs::Phase>(p)),
                static_cast<ull>(row));
  }
  out += "}";
  VarsAppendf(&out, ",\"stalls\":%llu",
              static_cast<ull>(BenchWatchdog() != nullptr
                                   ? BenchWatchdog()->stalls_detected()
                                   : 0));
  out += ",\"knobs\":{";
  {
    bool first = true;
    for (const auto& kv : KnobRegistry::Instance().Snapshot()) {
      VarsAppendf(&out, "%s\"%s\":%llu", first ? "" : ",", kv.first.c_str(),
                  static_cast<ull>(kv.second));
      first = false;
    }
  }
  out += "},\"tables\":[";
  const std::vector<RangeTelemetry> tables = CollectLiveRanges(16);
  for (size_t ti = 0; ti < tables.size(); ti++) {
    const RangeTelemetry& t = tables[ti];
    VarsAppendf(&out,
                "%s{\"num_ranges\":%u,\"registrations\":%llu,\"ranges\":[",
                ti == 0 ? "" : ",", t.num_ranges,
                static_cast<ull>(t.total_registrations));
    for (size_t ri = 0; ri < t.rows.size(); ri++) {
      const RangeTelemetry::Row& r = t.rows[ri];
      VarsAppendf(&out,
                  "%s{\"range_id\":%u,\"start_key\":%llu,\"end_key\":%llu,"
                  "\"registrations\":%llu,\"ring_lost\":%llu,"
                  "\"scan_conflict\":%llu,\"ring_capacity\":%u,"
                  "\"aborts_by_reason\":{",
                  ri == 0 ? "" : ",", r.range_id,
                  static_cast<ull>(r.start_key), static_cast<ull>(r.end_key),
                  static_cast<ull>(r.registrations),
                  static_cast<ull>(r.ring_lost),
                  static_cast<ull>(r.scan_conflict), r.ring_capacity);
      // Heatmap row, nonzero cells only, to bound the document size.
      bool first = true;
      for (size_t c = 0; c < kNumAbortCauses; c++) {
        if (r.abort_by_reason[c] == 0) continue;
        VarsAppendf(&out, "%s\"%s\":%llu", first ? "" : ",",
                    AbortReasonName(kAbortCauses[c]),
                    static_cast<ull>(r.abort_by_reason[c]));
        first = false;
      }
      out += "}}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

inline BenchEnv ParseEnv(int argc, char** argv) {
  BenchEnv env;
  env.cfg = Config(argc, argv);
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path = argv[0];
    const size_t slash = path.find_last_of('/');
    env.binary = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  env.paper = env.cfg.GetBool("paper", false);
  if (env.paper) {
    env.threads = 40;
    env.rows = 10'000'000;
    env.txns_per_thread = 2500;  // 100k total at 40 threads, per paper
    env.warmup = 250;
  }
  env.threads = static_cast<uint32_t>(env.cfg.GetInt("threads", env.threads));
  env.rows = static_cast<uint64_t>(env.cfg.GetInt("rows", env.rows));
  env.txns_per_thread =
      static_cast<uint64_t>(env.cfg.GetInt("txns", env.txns_per_thread));
  env.warmup = static_cast<uint64_t>(env.cfg.GetInt("warmup", env.warmup));
  env.csv = env.cfg.Has("csv");
  const std::string csv_value = env.cfg.GetString("csv", "");
  if (!csv_value.empty() && csv_value != "true" && csv_value != "1" &&
      csv_value != "yes") {
    env.csv_file = csv_value;
  }
  env.json_file = env.cfg.GetString("json", "");
  env.log_dir = env.cfg.GetString("log-dir", "");
  env.group_commit_us =
      static_cast<uint32_t>(env.cfg.GetInt("group-commit-us", env.group_commit_us));
  env.no_durability = env.cfg.GetBool("no-durability", false);
  env.trace_file = env.cfg.GetString("trace", "");
  env.prom_file = env.cfg.GetString("prom", "");
  env.prom_stream_ms =
      static_cast<uint32_t>(env.cfg.GetInt("prom-stream-ms", 0));
  env.http_port = static_cast<uint16_t>(env.cfg.GetInt("http-port", 0));
  env.obs_slo_us = static_cast<uint32_t>(env.cfg.GetInt("obs-slo-us", 0));
  env.watchdog_ms = static_cast<uint32_t>(env.cfg.GetInt("watchdog-ms", 0));
  env.knob_file = env.cfg.GetString("knob-file", "");
  env.obs = env.cfg.GetBool("obs", false) || !env.trace_file.empty() ||
            !env.prom_file.empty() || env.prom_stream_ms > 0 ||
            env.http_port != 0 || env.obs_slo_us > 0 || env.watchdog_ms > 0;
  env.obs_sample =
      static_cast<uint32_t>(env.cfg.GetInt("obs-sample", env.obs_sample));
  env.obs_ring = static_cast<uint32_t>(env.cfg.GetInt("obs-ring", env.obs_ring));

  if (env.obs) {
    obs::ObsOptions oo;
    oo.sample_period = env.obs_sample;
    oo.ring_capacity = env.obs_ring;
    oo.slo_us = env.obs_slo_us;
    oo.max_workers = std::max<uint32_t>(env.threads * 2, 128);
    // Static: the recorder must outlive every worker AND the atexit dump.
    // ParseEnv runs once per binary, before any worker starts.
    static obs::FlightRecorder recorder(oo);
    obs::SetRecorder(&recorder);
    if (!env.trace_file.empty()) {
      static std::string trace_path;
      trace_path = env.trace_file;
      std::atexit([] {
        obs::FlightRecorder* r = obs::Recorder();
        if (r != nullptr) obs::WriteChromeTrace(*r, trace_path.c_str());
      });
      obs::InstallSignalDump(trace_path);
    }
    if (env.prom_stream_ms > 0) {
      if (env.prom_file.empty()) {
        std::fprintf(stderr,
                     "warning: --prom-stream-ms needs --prom FILE; live "
                     "streaming disabled\n");
      } else {
        obs::PrometheusStreamer::Options so;
        so.path = env.prom_file;
        so.labels = "binary=\"" + env.binary + "\"";
        so.interval_ms = env.prom_stream_ms;
        // Static for the same lifetime reason as the recorder above; declared
        // after it, so it is destroyed (and stops its thread) first.
        static obs::PrometheusStreamer streamer(so, obs::Recorder());
        PromStreamer() = &streamer;
        streamer.Start();
      }
    }
    if (env.watchdog_ms > 0) {
      obs::WatchdogOptions wo;
      wo.stall_threshold_ms = env.watchdog_ms;
      static obs::StallWatchdog watchdog(wo);
      BenchWatchdog() = &watchdog;
      watchdog.Start();
    }
  }

  // Knob overrides apply to already-registered cells (the recorder's, the
  // watchdog's); knobs registered later by protocol constructors re-arm to
  // their own config — latest constructor wins, see KnobRegistry. SIGHUP
  // re-applies the file, drained by the watchdog thread when one runs.
  if (!env.knob_file.empty()) {
    const int applied = KnobRegistry::Instance().LoadFile(env.knob_file.c_str());
    if (applied < 0) {
      std::fprintf(stderr, "warning: cannot read --knob-file %s\n",
                   env.knob_file.c_str());
    } else {
      KnobRegistry::Instance().SetReloadFile(env.knob_file);
    }
  }

  if (env.http_port != 0) {
    obs::HttpServerOptions ho;
    ho.port = env.http_port;
    static obs::HttpServer server(ho);
    // Static: the providers' captures must stay valid for the server thread.
    static std::string labels = "binary=\"" + env.binary + "\"";
    static std::string binary_name = env.binary;
    server.SetMetricsProvider([] {
      // With a live streamer the scrape shares its cursors, so the body
      // carries the ring-derived rocc_stream_* series too. The streamer only
      // renders the txn families once it holds stats, so hand it the mid-run
      // worker-sink merge first (guarded: between runs the live merge is
      // empty and would clobber the accumulated end-of-run totals).
      if (PromStreamer() != nullptr) {
        if (LiveRunActive()) PromStreamer()->UpdateStats(CollectLiveStats());
        return PromStreamer()->CollectString();
      }
      return obs::PrometheusSnapshot(CollectLiveStats(), labels);
    });
    server.SetVarsProvider([] { return BuildVarsJson(binary_name); });
    if (server.Start()) {
      BenchHttpServer() = &server;
      std::fprintf(stderr, "[http] observability plane on 127.0.0.1:%u\n",
                   server.port());
    }
  }
  return env;
}

/// Accumulate a measured run into the binary's Prometheus snapshot and
/// rewrite `--prom FILE` (cumulative across runs, like a scraped process).
/// No-op without --prom.
inline void EmitProm(const BenchEnv& env, const TxnStats& stats) {
  if (env.prom_file.empty()) return;
  static TxnStats accumulated;
  accumulated.Merge(stats);
  const std::string labels = "binary=\"" + env.binary + "\"";
  if (PromStreamer() != nullptr) {
    // Streaming mode: the streamer owns the file; hand it the stats and let
    // one immediate collection fold in whatever the rings hold right now.
    PromStreamer()->UpdateStats(accumulated);
    PromStreamer()->CollectOnce();
    return;
  }
  if (!obs::WritePrometheusSnapshot(accumulated, labels,
                                    env.prom_file.c_str())) {
    std::fprintf(stderr, "warning: cannot write %s for Prometheus output\n",
                 env.prom_file.c_str());
  }
}

/// Print the table; when `--csv <file>` was given, also append the CSV block
/// to that file (appending keeps multiple tables from one binary together);
/// when `--json <file>` was given, add the table to the binary's JSON report
/// and rewrite the file.
inline void Emit(const BenchEnv& env, const ReportTable& table,
                 const std::string& title = "") {
  table.Print(env.csv);
  if (!env.json_file.empty()) {
    static JsonReport report(env.binary, env.Describe());
    report.AddTable(title.empty() ? env.binary : title, table);
    if (!report.WriteTo(env.json_file)) {
      std::fprintf(stderr, "warning: cannot write %s for JSON output\n",
                   env.json_file.c_str());
    }
  }
  if (env.csv_file.empty()) return;
  std::ofstream out(env.csv_file, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open %s for CSV output\n",
                 env.csv_file.c_str());
    return;
  }
  out << table.ToCsv();
}

/// Open a durability log for one measured run when `--log-dir` is set; every
/// run gets its own subdirectory so WALs of successive runs in one binary
/// never interleave. Returns nullptr (durability off) otherwise.
inline std::unique_ptr<LogManager> OpenRunLog(const BenchEnv& env,
                                              uint32_t num_threads) {
  if (env.log_dir.empty()) return nullptr;
  static int run_counter = 0;
  ::mkdir(env.log_dir.c_str(), 0755);  // parent; EEXIST is fine
  LogOptions lopts;
  lopts.log_dir = env.log_dir + "/run" + std::to_string(++run_counter);
  lopts.group_commit_us = env.group_commit_us;
  lopts.sync_ack = !env.no_durability;
  auto log = std::make_unique<LogManager>(lopts, num_threads);
  const Status st = log->Open();
  if (!st.ok()) {
    std::fprintf(stderr, "warning: durability disabled: %s\n",
                 st.ToString().c_str());
    return nullptr;
  }
  return log;
}

/// One YCSB measurement: loads (or reuses) the table and runs the protocol.
///
/// The YCSB hybrid workload never inserts or deletes, so one loaded Database
/// can be reused across protocol runs within a binary; pass a fresh one per
/// binary invocation.
class YcsbBench {
 public:
  YcsbBench(const BenchEnv& env, YcsbOptions opts) : env_(env), opts_(opts) {
    opts_.num_rows = env.rows;
    workload_ = std::make_unique<YcsbWorkload>(opts_);
    workload_->Load(&db_);
  }

  /// Re-parameterise the generator without reloading data (same row count).
  void Reconfigure(const YcsbOptions& opts) {
    YcsbOptions next = opts;
    next.num_rows = opts_.num_rows;
    next.payload_size = opts_.payload_size;
    const uint32_t table = workload_->table_id();
    opts_ = next;
    workload_ = std::make_unique<YcsbWorkload>(opts_);
    workload_->SetLoadedTable(table);
  }

  RunResult Run(const std::string& proto, uint32_t ranges_hint = 0,
                uint32_t ring_capacity = 4096, bool register_writes = true,
                uint32_t threads_override = 0) {
    auto cc = CreateProtocol(proto, &db_, *workload_,
                             threads_override == 0 ? env_.threads : threads_override,
                             ranges_hint, ring_capacity, register_writes);
    return RunWith(std::move(cc), threads_override);
  }

  /// Run a caller-built protocol instance (custom options / ablations).
  RunResult RunWith(std::unique_ptr<ConcurrencyControl> cc,
                    uint32_t threads_override = 0) {
    return RunWith(cc.get(), threads_override);
  }

  /// Non-owning variant: the caller keeps the protocol alive, e.g. to read
  /// range telemetry after the measured run.
  RunResult RunWith(ConcurrencyControl* cc, uint32_t threads_override = 0) {
    RunOptions run;
    run.num_threads = threads_override == 0 ? env_.threads : threads_override;
    run.txns_per_thread = env_.txns_per_thread;
    run.warmup_txns_per_thread = env_.warmup;
    std::unique_ptr<LogManager> log = OpenRunLog(env_, run.num_threads);
    run.log = log.get();
    LiveRangeScope ranges(cc);  // /vars heatmap source for this run
    RunResult r = RunExperiment(cc, workload_.get(), run);
    if (log != nullptr) log->Stop();
    EmitProm(env_, r.stats);
    return r;
  }

  YcsbWorkload& workload() { return *workload_; }
  const YcsbOptions& options() const { return opts_; }
  Database* db() { return &db_; }

 private:
  BenchEnv env_;
  YcsbOptions opts_;
  Database db_;
  std::unique_ptr<YcsbWorkload> workload_;
};

/// One modified-TPC-C measurement; reloads the database per run so every
/// protocol starts from identical state.
inline RunResult RunTpcc(const BenchEnv& env, const TpccOptions& opts,
                         const std::string& proto, uint32_t threads,
                         uint32_t ranges_hint = 0, uint32_t ring_capacity = 4096) {
  Database db;
  TpccWorkload workload(opts);
  workload.Load(&db);
  auto cc = CreateProtocol(proto, &db, workload, threads, ranges_hint,
                           ring_capacity);
  RunOptions run;
  run.num_threads = threads;
  run.txns_per_thread = env.txns_per_thread;
  run.warmup_txns_per_thread = env.warmup;
  std::unique_ptr<LogManager> log = OpenRunLog(env, threads);
  run.log = log.get();
  LiveRangeScope ranges(cc.get());  // /vars heatmap source for this run
  RunResult r = RunExperiment(cc.get(), &workload, run);
  if (log != nullptr) log->Stop();
  EmitProm(env, r.stats);
  return r;
}

inline std::string F(double v, int p = 2) { return ReportTable::Fmt(v, p); }
inline std::string F(uint64_t v) { return ReportTable::Fmt(v); }

/// Loud give-up guard: at the default retry budgets the starvation-escape
/// escalation makes retry exhaustion impossible, so a nonzero give_ups count
/// means dropped transactions are silently skewing the reported throughput.
/// Accumulates across runs; call Failed() before exiting to pick main's
/// return code.
class GiveUpGuard {
 public:
  void Check(const RunResult& r, const std::string& label) {
    if (r.stats.give_ups == 0) return;
    failed_ = true;
    std::fprintf(stderr,
                 "ERROR: %s dropped %llu logical transactions (give_ups != 0); "
                 "throughput figures above under-report contention\n",
                 label.c_str(),
                 static_cast<unsigned long long>(r.stats.give_ups));
  }
  bool Failed() const { return failed_; }

 private:
  bool failed_ = false;
};

}  // namespace bench
}  // namespace rocc
