#include "obs/prometheus.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace rocc {
namespace obs {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

void Counter(std::string* out, const char* name, const char* help,
             const std::string& labels, uint64_t value) {
  Appendf(out, "# HELP %s %s\n# TYPE %s counter\n", name, help, name);
  Appendf(out, "%s{%s} %llu\n", name, labels.c_str(),
          static_cast<unsigned long long>(value));
}

void Gauge(std::string* out, const char* name, const char* help,
           const std::string& labels, uint64_t value) {
  Appendf(out, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name);
  Appendf(out, "%s{%s} %llu\n", name, labels.c_str(),
          static_cast<unsigned long long>(value));
}

/// Label prefix for metrics that add their own label (reason=, le=): the
/// shared labels followed by a comma, or empty.
std::string Prefix(const std::string& labels) {
  return labels.empty() ? std::string() : labels + ",";
}

/// One Prometheus histogram from a rocc::Histogram. `scale` divides the
/// recorded values for export: 1e9 turns nanosecond samples into seconds
/// (the Prometheus convention for durations); 1 exports raw units (e.g.
/// version-chain lengths). Only buckets that hold samples contribute an `le`
/// line, followed by the mandatory `+Inf`.
void Hist(std::string* out, const char* name, const char* help,
          const std::string& labels, const Histogram& h, double scale = 1e9) {
  Appendf(out, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  const std::string prefix = Prefix(labels);
  const auto& buckets = h.bucket_counts();
  uint64_t cumulative = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; b++) {
    if (buckets[b] == 0) continue;
    cumulative += buckets[b];
    // Upper bound of bucket b = lower bound of bucket b+1.
    const double le =
        static_cast<double>(Histogram::BucketLowerBound(b + 1)) / scale;
    Appendf(out, "%s_bucket{%sle=\"%.9g\"} %llu\n", name, prefix.c_str(),
            le, static_cast<unsigned long long>(cumulative));
  }
  Appendf(out, "%s_bucket{%sle=\"+Inf\"} %llu\n", name, prefix.c_str(),
          static_cast<unsigned long long>(h.count()));
  Appendf(out, "%s_sum{%s} %.9g\n", name, labels.c_str(),
          static_cast<double>(h.sum()) / scale);
  Appendf(out, "%s_count{%s} %llu\n", name, labels.c_str(),
          static_cast<unsigned long long>(h.count()));
}

}  // namespace

std::string PrometheusSnapshot(const TxnStats& s, const std::string& labels) {
  std::string out;
  out.reserve(8192);

  Counter(&out, "rocc_txn_commits_total", "Committed transactions", labels,
          s.commits);
  Counter(&out, "rocc_txn_scan_commits_total", "Committed bulk/scan transactions",
          labels, s.scan_txn_commits);
  Counter(&out, "rocc_txn_give_ups_total",
          "Logical transactions dropped after exhausting the retry budget",
          labels, s.give_ups);
  Counter(&out, "rocc_txn_escalations_total",
          "Entries into the protected (escalated) retry path", labels,
          s.escalations);
  Counter(&out, "rocc_log_records_total", "Redo records appended to the WAL",
          labels, s.log_records);
  Counter(&out, "rocc_durable_acks_total", "Commits acknowledged as durable",
          labels, s.durable_acks);

  // Aborted attempts, labelled by structured cause — same names as the
  // report table and the trace exporter (single string table).
  Appendf(&out,
          "# HELP rocc_txn_aborts_total Aborted attempts by cause\n"
          "# TYPE rocc_txn_aborts_total counter\n");
  const std::string prefix = Prefix(labels);
  for (AbortReason r : kAbortCauses) {
    Appendf(&out, "rocc_txn_aborts_total{%sreason=\"%s\"} %llu\n",
            prefix.c_str(), AbortReasonName(r),
            static_cast<unsigned long long>(AbortCauseCount(s, r)));
  }

  Appendf(&out,
          "# HELP rocc_txn_abort_rate Aborted attempts / total attempts\n"
          "# TYPE rocc_txn_abort_rate gauge\n"
          "rocc_txn_abort_rate{%s} %.6f\n",
          labels.c_str(), s.AbortRate());

  // Multi-version row store rates; present only when the run used MVCC so
  // single-version snapshots stay unchanged.
  if (s.mv_versions_installed != 0 || s.mv_snapshot_scans != 0 ||
      s.mv_snapshot_txns != 0) {
    Counter(&out, "rocc_mv_versions_installed_total",
            "Pre-image version nodes linked at commit", labels,
            s.mv_versions_installed);
    Counter(&out, "rocc_mv_version_bytes_installed_total",
            "Node plus payload bytes of installed versions", labels,
            s.mv_version_bytes_installed);
    Counter(&out, "rocc_mv_snapshot_scans_total",
            "Snapshot scan operator invocations", labels, s.mv_snapshot_scans);
    Counter(&out, "rocc_mv_snapshot_records_total",
            "Records returned by snapshot scans", labels,
            s.mv_snapshot_records);
    Counter(&out, "rocc_mv_chain_reads_total",
            "Snapshot reads resolved from a version chain (not the row)",
            labels, s.mv_chain_reads);
    Counter(&out, "rocc_mv_snapshot_point_reads_total",
            "Point reads served at a frozen snapshot", labels,
            s.mv_snapshot_point_reads);
    Counter(&out, "rocc_mv_snapshot_txns_total",
            "Read-only snapshot transactions committed without validation",
            labels, s.mv_snapshot_txns);
    if (s.mv_chain_length.count() != 0) {
      Hist(&out, "rocc_mv_chain_length",
           "Version-chain length observed after install plus prune", labels,
           s.mv_chain_length, /*scale=*/1.0);
    }
  }

  // Tail-latency SLO attribution (§16.2): violations as a
  // slowest_phase × reason matrix, nonzero cells only. Present only when the
  // run recorded any so obs-off / SLO-off snapshots stay byte-identical.
  if (s.SloViolationTotal() != 0) {
    Appendf(&out,
            "# HELP rocc_slo_violations_total Attempts over the latency SLO "
            "by slowest phase and outcome\n"
            "# TYPE rocc_slo_violations_total counter\n");
    for (uint32_t p = 0; p < TxnStats::kNumSloPhases; p++) {
      for (uint32_t c = 0; c <= kNumAbortCauses; c++) {
        if (s.slo_violations[p][c] == 0) continue;
        const AbortReason r = c == 0 ? AbortReason::kNone : kAbortCauses[c - 1];
        Appendf(&out,
                "rocc_slo_violations_total{%sslowest_phase=\"%s\","
                "reason=\"%s\"} %llu\n",
                prefix.c_str(), PhaseName(static_cast<obs::Phase>(p)),
                AbortReasonName(r),
                static_cast<unsigned long long>(s.slo_violations[p][c]));
      }
    }
    if (s.latency_slo.count() != 0) {
      Hist(&out, "rocc_txn_slo_latency_seconds",
           "Total latency of SLO-violating attempts", labels, s.latency_slo);
    }
  }

  struct NamedHist {
    const char* name;
    const char* help;
    const Histogram* h;
  };
  const NamedHist hists[] = {
      {"rocc_txn_latency_seconds", "Committed transaction latency",
       &s.latency_all},
      {"rocc_txn_scan_latency_seconds", "Committed bulk/scan transaction latency",
       &s.latency_scan},
      {"rocc_txn_durable_latency_seconds", "Begin to durable-acknowledge latency",
       &s.latency_durable},
      {"rocc_phase_execute_seconds", "Read/write phase of committed attempts",
       &s.phase_execute},
      {"rocc_phase_validate_seconds",
       "Lock+register+validate phase of committed attempts", &s.phase_validate},
      {"rocc_phase_apply_seconds",
       "Write install and ring publish of committed attempts", &s.phase_apply},
      {"rocc_phase_log_wait_seconds", "Group-commit durability wait",
       &s.phase_log_wait},
      {"rocc_backoff_seconds", "Per-abort adaptive backoff duration",
       &s.backoff_time},
  };
  for (const NamedHist& nh : hists) {
    if (nh.h->count() == 0) continue;
    Hist(&out, nh.name, nh.help, labels, *nh.h);
  }
  return out;
}

bool WritePrometheusSnapshot(const TxnStats& stats, const std::string& labels,
                             const char* path) {
  const std::string text = PrometheusSnapshot(stats, labels);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == text.size() && closed;
}

void AppendMvGauges(std::string* out, const MvGauges& g,
                    const std::string& labels) {
  Gauge(out, "rocc_mv_live_versions",
        "Version nodes installed and not yet reclaimed", labels, g.live_nodes);
  Gauge(out, "rocc_mv_live_version_bytes",
        "Bytes held by live version nodes", labels, g.live_bytes);
  Gauge(out, "rocc_mv_snapshots_evicted",
        "Pinned snapshots evicted under prune pressure", labels,
        g.snapshots_evicted);
  Appendf(out,
          "# HELP rocc_mv_oldest_snapshot_age_seconds Age of the oldest "
          "pinned snapshot\n"
          "# TYPE rocc_mv_oldest_snapshot_age_seconds gauge\n"
          "rocc_mv_oldest_snapshot_age_seconds{%s} %.6f\n",
          labels.c_str(),
          static_cast<double>(g.oldest_snapshot_age_ns) / 1e9);
}

// ---------------------------------------------------------------------------
// PrometheusStreamer
// ---------------------------------------------------------------------------

PrometheusStreamer::PrometheusStreamer(Options options,
                                       const FlightRecorder* recorder)
    : options_(std::move(options)), recorder_(recorder) {
  if (recorder_ != nullptr) {
    cursors_.assign(recorder_->num_workers() + 1, 0);
  }
}

PrometheusStreamer::~PrometheusStreamer() { Stop(); }

void PrometheusStreamer::Start() {
  std::lock_guard<std::mutex> g(mu_);
  if (running_ || recorder_ == nullptr) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Run(); });
}

void PrometheusStreamer::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> g(mu_);
    running_ = false;
  }
  CollectOnce();  // final drain so the file reflects the full run
}

void PrometheusStreamer::UpdateStats(const TxnStats& merged) {
  std::lock_guard<std::mutex> g(mu_);
  stats_ = merged;
  has_stats_ = true;
}

void PrometheusStreamer::SetMvGaugeSource(std::function<MvGauges()> fn) {
  std::lock_guard<std::mutex> g(mu_);
  gauge_fn_ = std::move(fn);
}

bool PrometheusStreamer::CollectOnce() {
  std::lock_guard<std::mutex> g(mu_);
  DrainLocked();
  return WriteLocked();
}

std::string PrometheusStreamer::CollectString() {
  std::lock_guard<std::mutex> g(mu_);
  DrainLocked();
  std::string out;
  RenderLocked(&out);
  return out;
}

StreamCounters PrometheusStreamer::counters() const {
  std::lock_guard<std::mutex> g(mu_);
  return counters_;
}

void PrometheusStreamer::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_; });
    if (stop_) break;
    DrainLocked();
    WriteLocked();
  }
}

void PrometheusStreamer::DrainLocked() {
  if (recorder_ == nullptr) return;
  const uint32_t n = recorder_->num_workers();
  for (uint32_t tid = 0; tid <= n; tid++) {
    const TraceRing& ring = tid < n ? recorder_->worker_ring(tid)
                                    : recorder_->service_ring();
    const uint64_t from = cursors_[tid];
    uint64_t delivered = 0;
    const uint64_t next = ring.ForEachFrom(from, [&](const TraceEvent& e) {
      delivered++;
      AccountLocked(e);
    });
    // ForEachFrom clamps the start to the live window: anything between the
    // cursor and the window start was overwritten before we got to it.
    if (next > from) {
      counters_.events_seen += delivered;
      counters_.events_dropped += (next - from) - delivered;
    }
    cursors_[tid] = next;
  }
}

void PrometheusStreamer::AccountLocked(const TraceEvent& e) {
  switch (static_cast<EventType>(e.type)) {
    case EventType::kWalFlush:
      counters_.wal_flushes++;
      counters_.wal_flush_bytes += e.a;
      break;
    case EventType::kVersionGc:
      counters_.version_gc_passes++;
      counters_.version_gc_nodes += e.a;
      break;
    case EventType::kVersionInstall:
      counters_.version_installs++;
      counters_.version_nodes += e.a;
      break;
    case EventType::kSnapshotScan:
      counters_.snapshot_scans++;
      counters_.snapshot_records += e.a;
      break;
    case EventType::kSnapshotEvict:
      counters_.snapshot_evictions++;
      break;
    case EventType::kStall:
      counters_.stalls++;
      break;
    case EventType::kSloViolation:
      counters_.slo_violations++;
      break;
    default:
      break;
  }
}

void PrometheusStreamer::RenderLocked(std::string* outp) {
  std::string& out = *outp;
  out.reserve(16384);
  if (has_stats_) out = PrometheusSnapshot(stats_, options_.labels);

  const StreamCounters& c = counters_;
  Counter(&out, "rocc_stream_wal_flushes_total",
          "Group-commit flush batches (from the trace rings)", options_.labels,
          c.wal_flushes);
  Counter(&out, "rocc_stream_wal_flush_bytes_total",
          "Bytes written across group-commit batches", options_.labels,
          c.wal_flush_bytes);
  Counter(&out, "rocc_stream_version_gc_passes_total",
          "Version reclaim passes that freed nodes", options_.labels,
          c.version_gc_passes);
  Counter(&out, "rocc_stream_version_gc_nodes_total",
          "Version nodes freed by reclaim passes", options_.labels,
          c.version_gc_nodes);
  Counter(&out, "rocc_stream_version_installs_total",
          "Commits that linked pre-image versions (sampled)", options_.labels,
          c.version_installs);
  Counter(&out, "rocc_stream_version_nodes_total",
          "Pre-image version nodes linked (sampled)", options_.labels,
          c.version_nodes);
  Counter(&out, "rocc_stream_snapshot_scans_total",
          "Snapshot scans finished (sampled)", options_.labels,
          c.snapshot_scans);
  Counter(&out, "rocc_stream_snapshot_records_total",
          "Records returned by snapshot scans (sampled)", options_.labels,
          c.snapshot_records);
  Counter(&out, "rocc_stream_snapshot_evictions_total",
          "Pinned snapshots evicted under prune pressure (exact)",
          options_.labels, c.snapshot_evictions);
  // Always emitted (even at zero) so clean CI runs can assert absence of
  // stalls by value instead of by missing series.
  Counter(&out, "rocc_stream_stalls_total",
          "Distinct worker stalls reported by the watchdog", options_.labels,
          c.stalls);
  Counter(&out, "rocc_stream_slo_violations_total",
          "SLO-violating attempts seen in the trace rings", options_.labels,
          c.slo_violations);
  Counter(&out, "rocc_stream_trace_events_total",
          "Trace events delivered to the streamer", options_.labels,
          c.events_seen);
  Counter(&out, "rocc_stream_trace_events_dropped_total",
          "Trace events that wrapped out of a ring before a drain",
          options_.labels, c.events_dropped);

  if (gauge_fn_) AppendMvGauges(&out, gauge_fn_(), options_.labels);
}

bool PrometheusStreamer::WriteLocked() {
  std::string out;
  RenderLocked(&out);

  // Write-then-rename so a concurrent scrape never reads a torn file.
  const std::string tmp = options_.path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed) return false;
  return std::rename(tmp.c_str(), options_.path.c_str()) == 0;
}

}  // namespace obs
}  // namespace rocc
