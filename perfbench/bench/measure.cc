#include "bench/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench/closed_loop.h"
#include "bench/traced_cc.h"
#include "mv/version_store.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// One measured window on a built engine, with the engine gauges read at the
/// window edges.
struct Window {
  LoopResult loop;
  uint64_t log_bytes = 0;   ///< durable WAL bytes over the window
  uint64_t log_epochs = 0;  ///< durable epochs over the window
  double mv_live_mib = 0;   ///< live version bytes at the window end
};

Window RunWindow(Engine& e, const RunConfig& config, TracedCc* traced) {
  Window w;
  uint64_t bytes0 = 0, epochs0 = 0;
  LoopOptions lo;
  lo.workers = config.spec.workers;
  lo.warmup_txns = config.spec.warmup_txns;
  lo.txns = config.txns;
  lo.slices = kSlices;
  lo.seed = config.seed;
  lo.traced = traced;
  lo.on_window_start = [&] {
    if (e.log != nullptr) {
      bytes0 = e.log->durable_bytes();
      epochs0 = e.log->durable_epoch();
    }
  };
  lo.on_window_end = [&] {
    if (e.log != nullptr) {
      w.log_bytes = e.log->durable_bytes() - bytes0;
      w.log_epochs = e.log->durable_epoch() - epochs0;
    }
    if (rocc::mv::VersionStore* vs = e.cc->version_store()) {
      w.mv_live_mib = static_cast<double>(vs->Telemetry().live_bytes()) / kMiB;
    }
  };
  rocc::ConcurrencyControl* cc =
      traced != nullptr ? static_cast<rocc::ConcurrencyControl*>(traced)
                        : e.cc.get();
  w.loop = RunClosedLoop(cc, e.workload.get(), lo);
  return w;
}

/// Outcome accounting and the window-level checks shared by both modes.
void AccountWindow(const Window& w, const char* label, RunReport* r) {
  const LoopResult& l = w.loop;
  r->attempted = l.attempted;
  r->failed = l.attempted - l.committed;
  if (l.bad_status != 0) {
    r->failures.push_back(std::to_string(l.bad_status) +
                          " RunTxn calls ended neither OK nor in a give-up");
  }
  if (l.warmup_stats.AbortCauseSum() != l.warmup_stats.aborts) {
    r->failures.push_back("warm-up abort causes do not sum to aborts");
  }
  r->diagnostics.push_back(
      std::string(label) + ": window_s=" + Fmt("%.4f", l.window_s) +
      " steal_share=" + Fmt("%.4f", l.steal_share) +
      " attempted=" + std::to_string(l.attempted) +
      " committed=" + std::to_string(l.committed) +
      " whole_window_tps=" + Fmt("%.1f", Ratio(l.committed, l.window_s)) +
      " runtxn_calls=" + std::to_string(l.calls) +
      " give_ups_resubmitted=" + std::to_string(l.gave_up) +
      " bulk_committed=" + std::to_string(l.committed_bulk));
  std::string aborts = std::string(label) + " aborts:";
  for (rocc::AbortReason reason : rocc::kAbortCauses) {
    aborts += std::string(" ") + rocc::AbortReasonName(reason) + "=" +
              std::to_string(rocc::AbortCauseCount(l.stats, reason));
  }
  r->diagnostics.push_back(aborts + " escalations=" +
                           std::to_string(l.stats.escalations));
}

void Check(std::unique_ptr<Engine> e, const Window& w, RunReport* r) {
  for (std::string& f : CheckAndRelease(std::move(e), w.loop.stats)) {
    r->failures.push_back(std::move(f));
  }
}

std::string WalDir(const RunConfig& config, const std::string& tag) {
  return config.spec.wal ? config.wal_root + "/" + tag : std::string();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Committed transactions per second of each slice of the window.
std::vector<double> SliceTps(const LoopResult& l) {
  std::vector<double> tps;
  for (const Slice& s : l.slices) {
    tps.push_back(Ratio(s.committed, s.wall_s));
  }
  return tps;
}

/// Median over the window's slices of each slice's percentile `q`. Refused
/// when any slice has fewer than kMinBeyond samples beyond its percentile.
void AddPercentile(LoopResult& l, bool bulk, double q, const std::string& name,
                   RunReport* r) {
  std::vector<double> values;
  uint64_t min_samples = ~0ULL, min_beyond = ~0ULL;
  for (const Slice& s : l.slices) {
    const std::span<uint32_t> samples = bulk ? l.Bulk(s) : l.Oltp(s);
    const std::optional<Percentile> p = TakePercentile(samples, q);
    if (!p) {
      r->refused.push_back(name + " (a slice has " + std::to_string(samples.size()) +
                           " samples; fewer than " + std::to_string(kMinBeyond) +
                           " beyond it)");
      return;
    }
    values.push_back(static_cast<double>(p->value_ns) / 1000.0);
    min_samples = std::min(min_samples, p->samples);
    min_beyond = std::min(min_beyond, p->beyond);
  }
  r->metrics.push_back({name, Median(values), "us"});
  r->diagnostics.push_back(name + ": median of " + std::to_string(values.size()) +
                           " slices; per slice samples>=" +
                           std::to_string(min_samples) + " beyond>=" +
                           std::to_string(min_beyond));
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

const Metric* RunReport::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

RunReport MeasureEndToEnd(const RunConfig& config) {
  RunReport r;
  // Set up several times and report the median; the last engine is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Engine> e;
  for (uint32_t i = 0; i < kSetups; i++) {
    e.reset();
    e = BuildEngine(config.spec, WalDir(config, "setup-" + std::to_string(i)));
    setup_s.push_back(e->setup_s);
  }
  const double setup_median = Median(setup_s);

  Window w = RunWindow(*e, config, nullptr);
  // Peak memory of set-up and window: the WAL recovery check below holds
  // the whole log and a second database.
  const double peak_rss_mib = PeakRssMib();
  Check(std::move(e), w, &r);
  AccountWindow(w, "window", &r);

  // Each timing is the median over the window's slices: a host slow phase
  // or steal burst shorter than half the window does not move it.
  LoopResult& l = w.loop;
  const std::vector<double> tps = SliceTps(l);
  std::vector<double> cpu_us;
  for (const Slice& s : l.slices) {
    cpu_us.push_back(Ratio(s.cpu_s * 1e6, s.committed));
  }
  std::string per_slice = "slice txn_tps:";
  for (double v : tps) {
    per_slice += ' ';
    per_slice += Fmt("%.0f", v);
  }
  r.diagnostics.push_back(per_slice);
  r.diagnostics.push_back(
      "peak_rss_mib includes the latency sample buffer: " +
      Fmt("%.1f", static_cast<double>(l.samples.size() * sizeof(uint32_t)) / kMiB) +
      " MiB");
  r.metrics.push_back({"txn_tps", Median(tps), "1/s"});
  AddPercentile(l, false, 0.50, "oltp_p50_us", &r);
  AddPercentile(l, false, 0.99, "oltp_p99_us", &r);
  AddPercentile(l, true, 0.50, "bulk_p50_us", &r);
  AddPercentile(l, true, 0.99, "bulk_p99_us", &r);
  r.metrics.push_back({"cpu_us_per_txn", Median(cpu_us), "us"});
  // Every give-up is a failed call, although its transaction is resubmitted.
  r.metrics.push_back({"committed_share", Ratio(l.committed, l.calls), "1"});
  r.metrics.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
  r.metrics.push_back({"setup_s", setup_median, "s"});
  return r;
}

RunReport MeasurePerLayer(const RunConfig& config) {
  RunReport r;
  double untraced_tps = 0;
  {
    std::unique_ptr<Engine> e = BuildEngine(config.spec, WalDir(config, "untraced"));
    const Window w = RunWindow(*e, config, nullptr);
    untraced_tps = Median(SliceTps(w.loop));
    Check(std::move(e), w, &r);
    AccountWindow(w, "untraced window", &r);
  }

  std::unique_ptr<Engine> e = BuildEngine(config.spec, WalDir(config, "traced"));
  const double ring_mib = e->ring_mib;
  TracedCc traced(e->cc.get(), config.spec.workers);
  Window w = RunWindow(*e, config, &traced);
  const IndexProbe probe = ProbeIndex(*e, config.seed);
  Check(std::move(e), w, &r);
  AccountWindow(w, "traced window", &r);

  const LoopResult& l = w.loop;
  const rocc::TxnStats& s = l.stats;
  const TracedCc::Totals t = traced.Sum();
  const double txns = static_cast<double>(l.attempted);
  const double attempts = static_cast<double>(s.commits + s.aborts);
  using Op = TracedCc::Op;
  auto per_call = [&t](Op op) { return Ratio(t.ns[op], t.calls[op]); };
  auto per_txn = [txns](double ns) { return Ratio(ns, txns); };
  auto add = [&r](const std::string& name, double v, const char* unit) {
    r.metrics.push_back({name, v, unit});
  };

  const uint64_t cc_ns = t.ns[Op::kBegin] + t.ns[Op::kRead] + t.ns[Op::kUpdate] +
                         t.ns[Op::kInsert] + t.ns[Op::kRemove] +
                         t.ns[Op::kCommit] + t.ns[Op::kAbort];
  const uint64_t mv_ns = t.ns[Op::kSnapshotRead] + t.ns[Op::kSnapshotScan];
  // Residual of the closure: RunTxn time outside every engine call and
  // retry gap (plan generation, the workload's own logic, retry bookkeeping).
  const double self_ns = static_cast<double>(l.txn_ns_total) -
                         static_cast<double>(t.CcNanos()) -
                         static_cast<double>(t.retry_wait_ns);
  const double commit_ok_ns = static_cast<double>(t.ns[Op::kCommit] - t.commit_fail_ns);

  add("cc.begin_ns", per_call(Op::kBegin), "ns");
  add("cc.read_ns", per_call(Op::kRead), "ns");
  add("cc.update_ns", per_call(Op::kUpdate), "ns");
  add("cc.commit_ns", per_call(Op::kCommit), "ns");
  add("cc.validate_ns_per_commit", Ratio(s.validation_ns, s.commits), "ns");
  add("cc.apply_ns_per_commit",
      Ratio(commit_ok_ns - static_cast<double>(s.validation_ns), s.commits), "ns");
  add("cc.attempts_per_txn", Ratio(t.calls[Op::kBegin], txns), "1");
  add("cc.commit_fail_share", Ratio(t.commit_fails, t.calls[Op::kCommit]), "1");
  for (rocc::AbortReason reason : rocc::kAbortCauses) {
    add(std::string("cc.abort.") + rocc::AbortReasonName(reason),
        Ratio(rocc::AbortCauseCount(s, reason), attempts), "1");
  }
  add("cc.ns_per_txn", per_txn(cc_ns), "ns");

  add("core.scan_ns_per_row", Ratio(t.ns[Op::kScan], t.scan_rows), "ns");
  add("core.scan_fail_share", Ratio(t.scan_fails, t.calls[Op::kScan]), "1");
  add("core.validated_txns_per_bulk", Ratio(s.validated_txns, s.scan_txn_commits),
      "1");
  add("core.registrations_per_commit", Ratio(s.registrations, s.commits), "1");
  add("core.ring_mib", ring_mib, "MiB");
  add("core.scan_ns_per_txn", per_txn(t.ns[Op::kScan]), "ns");

  add("mv.snapshot_scan_ns_per_row",
      Ratio(t.ns[Op::kSnapshotScan], t.snapshot_scan_rows), "ns");
  add("mv.snapshot_read_ns", per_call(Op::kSnapshotRead), "ns");
  add("mv.chain_reads_per_bulk", Ratio(s.mv_chain_reads, s.mv_snapshot_txns), "1");
  // Read-only snapshot commits install nothing; divide by writing commits.
  add("mv.versions_per_commit",
      Ratio(s.mv_versions_installed, s.commits - s.mv_snapshot_txns), "1");
  add("mv.live_mib", w.mv_live_mib, "MiB");
  add("mv.ns_per_txn", per_txn(mv_ns), "ns");

  add("log.bytes_per_commit", Ratio(w.log_bytes, s.commits), "B");
  add("log.records_per_commit", Ratio(s.log_records, s.commits), "1");
  add("log.epochs_per_s", Ratio(w.log_epochs, l.window_s), "1/s");

  add("index.get_ns", probe.get_ns, "ns");
  add("index.scan_ns_per_row", probe.scan_ns_per_row, "ns");

  add("harness.retry_wait_ns_per_txn", per_txn(t.retry_wait_ns), "ns");
  add("harness.escalations_per_mtxn", Ratio(s.escalations * 1e6, txns), "1");
  add("harness.give_ups_per_mtxn", Ratio(l.gave_up * 1e6, txns), "1");

  add("workload.self_ns_per_txn", per_txn(self_ns), "ns");
  add("trace.txn_ns", per_txn(l.txn_ns_total), "ns");
  const double traced_tps = Median(SliceTps(l));
  add("trace.overhead_share", 1.0 - Ratio(traced_tps, untraced_tps), "1");

  // The closure, per operation: these terms sum to trace.txn_ns.
  static const char* const kOpNames[] = {
      "begin", "read", "snapshot_read", "update", "insert",
      "remove", "scan", "snapshot_scan", "commit", "abort"};
  std::string split = "traced split (ns/txn):";
  for (uint32_t op = 0; op < Op::kNumOps; op++) {
    split += ' ';
    split += kOpNames[op];
    split += '=' + Fmt("%.1f", per_txn(t.ns[op]));
  }
  split += " retry_wait=" + Fmt("%.1f", per_txn(t.retry_wait_ns)) +
           " workload_self=" + Fmt("%.1f", per_txn(self_ns)) +
           " total=" + Fmt("%.1f", per_txn(l.txn_ns_total));
  r.diagnostics.push_back(split);
  r.diagnostics.push_back("trace.overhead_share: traced_tps=" +
                          Fmt("%.1f", traced_tps) + " untraced_tps=" +
                          Fmt("%.1f", untraced_tps));
  return r;
}

}  // namespace perfbench
