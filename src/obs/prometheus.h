#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/stats.h"
#include "obs/obs.h"

namespace rocc {
namespace obs {

/// Render merged run statistics in the Prometheus text exposition format:
/// counters for commits/aborts (aborts labelled by reason via
/// AbortReasonName), gauges for derived rates, and native log-bucketed
/// histograms (cumulative `le` buckets in seconds, plus `_sum`/`_count`) for
/// the end-to-end latencies and the per-phase breakdown. Multi-version
/// counters (installs, snapshot scans, chain-length distribution) appear when
/// the run produced any. `labels` is spliced verbatim inside the metric
/// braces (e.g. `protocol="rocc"`); pass "" for none.
std::string PrometheusSnapshot(const TxnStats& stats, const std::string& labels);

/// Write PrometheusSnapshot(stats, labels) to `path` (truncating). Returns
/// false on I/O failure.
bool WritePrometheusSnapshot(const TxnStats& stats, const std::string& labels,
                             const char* path);

/// Live multi-version store gauges, read from mv::VersionStore::Telemetry().
/// Kept as a plain struct so the exporter does not depend on the mv layer.
struct MvGauges {
  uint64_t live_nodes = 0;  ///< version nodes installed and not yet freed
  uint64_t live_bytes = 0;  ///< bytes held by live version nodes
  uint64_t snapshots_evicted = 0;  ///< pinned snapshots evicted (counter)
  uint64_t oldest_snapshot_age_ns = 0;  ///< age of the oldest pinned snapshot
};

/// Append `rocc_mv_live_versions` / `rocc_mv_live_version_bytes` gauge lines
/// plus the snapshot-pressure series (evictions, oldest pinned age).
void AppendMvGauges(std::string* out, const MvGauges& g,
                    const std::string& labels);

/// Counters the streamer derives from the trace rings. Control-plane events
/// (WAL flushes, version GC passes, snapshot evictions) are always recorded
/// while the flight recorder is on, so those counts are exact; per-transaction
/// events (version installs, snapshot scans) ride the 1/N sampling decision
/// and the derived counters are sampled approximations — the authoritative
/// rates for those live in TxnStats.
struct StreamCounters {
  uint64_t wal_flushes = 0;       ///< group-commit batches (exact)
  uint64_t wal_flush_bytes = 0;   ///< bytes across those batches (exact)
  uint64_t version_gc_passes = 0;  ///< reclaim passes that freed nodes (exact)
  uint64_t version_gc_nodes = 0;   ///< version nodes freed by those passes
  uint64_t version_installs = 0;   ///< commits that linked pre-images (sampled)
  uint64_t version_nodes = 0;      ///< pre-image nodes linked (sampled)
  uint64_t snapshot_scans = 0;     ///< snapshot scans finished (sampled)
  uint64_t snapshot_records = 0;   ///< records those scans returned (sampled)
  uint64_t snapshot_evictions = 0;  ///< pinned snapshots evicted (exact)
  uint64_t stalls = 0;          ///< watchdog stall reports (exact)
  uint64_t slo_violations = 0;  ///< SLO-violating attempts seen in rings
  uint64_t events_seen = 0;     ///< trace events delivered to the streamer
  uint64_t events_dropped = 0;  ///< events that wrapped out before a drain
};

/// Streams the flight recorder's trace rings to a Prometheus text file
/// incrementally while the run is still in progress, instead of only writing
/// a snapshot at exit. Each collection drains every ring from a per-ring
/// cursor (TraceRing::ForEachFrom), folds the new events into running
/// counters, and atomically rewrites the target file (write + rename) with:
/// the latest merged TxnStats snapshot (if one was provided), the derived
/// stream counters, and the live multi-version gauges (if a source was set).
///
/// Ring reads race the owning workers by design — same benign race the
/// signal-triggered trace dump accepts; a torn slot at the drain frontier can
/// at worst misattribute one event. Events that wrap out of a ring between
/// collections are counted in `events_dropped` rather than silently lost.
class PrometheusStreamer {
 public:
  struct Options {
    std::string path;        ///< Prometheus text file to rewrite
    std::string labels;      ///< spliced into every metric's braces
    uint32_t interval_ms = 1000;  ///< background collection period
  };

  /// `recorder` must outlive the streamer (the bench scaffolding keeps a
  /// static recorder alive for the whole process).
  PrometheusStreamer(Options options, const FlightRecorder* recorder);
  ~PrometheusStreamer();
  PrometheusStreamer(const PrometheusStreamer&) = delete;
  PrometheusStreamer& operator=(const PrometheusStreamer&) = delete;

  /// Start the background collection thread (idempotent).
  void Start();

  /// Stop the background thread and run one final collection so the file
  /// reflects everything recorded up to the stop.
  void Stop();

  /// Latch the latest merged run statistics; they are embedded in every
  /// subsequent rewrite. Cumulative semantics are the caller's choice (the
  /// bench scaffolding passes its accumulated stats).
  void UpdateStats(const TxnStats& merged);

  /// Install a live-gauge source (e.g. reading VersionStore::Telemetry());
  /// called once per collection from the streamer thread.
  void SetMvGaugeSource(std::function<MvGauges()> fn);

  /// Drain the rings and rewrite the file once; returns false on I/O
  /// failure. Safe to call without Start() (tests, single-shot callers).
  bool CollectOnce();

  /// Drain the rings and return the full exposition document as a string
  /// without touching the file — the in-memory render behind GET /metrics.
  /// Serialized with the background thread by the streamer mutex, so a
  /// scrape and a timed rewrite never interleave their cursor updates.
  std::string CollectString();

  /// Current derived counters (latched copy).
  StreamCounters counters() const;

 private:
  void Run();
  void DrainLocked();
  void AccountLocked(const TraceEvent& e);
  void RenderLocked(std::string* out);
  bool WriteLocked();

  Options options_;
  const FlightRecorder* recorder_;
  std::vector<uint64_t> cursors_;  ///< per worker ring; last = service ring
  StreamCounters counters_;
  TxnStats stats_;
  bool has_stats_ = false;
  std::function<MvGauges()> gauge_fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_ = false;
  bool running_ = false;
};

}  // namespace obs
}  // namespace rocc
