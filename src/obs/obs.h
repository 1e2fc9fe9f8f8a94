#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "common/latch.h"
#include "common/timer.h"
#include "common/tsan.h"

namespace rocc {
namespace obs {

/// Execution phase of a span event; names must stay in sync with PhaseName.
/// The first four are the commit pipeline of every scheme (Fig. 1 of the
/// paper, per-transaction instead of aggregated); the last two come from the
/// retry layer.
enum class Phase : uint8_t {
  kExecute = 0,   ///< Begin -> Commit entry (read/write phase)
  kValidate,      ///< lock + register + readset/scan validation
  kWriteApply,    ///< after-image apply, WAL append, lock release
  kLogWait,       ///< group-commit durability wait
  kBackoff,       ///< ContentionManager per-abort adaptive backoff
  kGateWait,      ///< stalled behind another txn's protected retry
};
constexpr uint32_t kNumPhases = 6;

const char* PhaseName(Phase p);

/// Trace event kinds; names must stay in sync with EventTypeName.
enum class EventType : uint8_t {
  kTxnBegin = 0,  ///< a (sampled) attempt started; a = txn id
  kTxnCommit,     ///< attempt committed; detail = is_scan, a = txn id
  kTxnAbort,      ///< attempt aborted; detail = AbortReason, a = txn id,
                  ///< b = conflicting range id (kNoRange when not a scan abort)
  kSpan,          ///< phase span; detail = Phase, dur_ns = length
  kWalFlush,      ///< group-commit batch; a = bytes written, b = epoch
  kGateEnter,     ///< protected-retry gate acquired; a = holder thread id
  kGateExit,      ///< protected-retry gate released; a = holder thread id
  kVersionInstall,  ///< MVCC pre-images linked at commit; a = node count
  kVersionGc,     ///< MVCC reclaim pass freed nodes; a = nodes, b = pending
  kSnapshotScan,  ///< snapshot scan finished; a = records, b = chain reads
  kSnapshotEvict, ///< pinned snapshot evicted under prune pressure;
                  ///< tid = victim thread, a = evicted snapshot ts
  kStall,         ///< watchdog: worker stuck in one phase past threshold;
                  ///< detail = Phase, a = worker id, b = stall millis
  kSloViolation,  ///< attempt latency exceeded --obs-slo-us; detail packs
                  ///< slowest Phase | AbortReason (see kSloPhaseBits),
                  ///< a = txn id, b = total latency in microseconds
};

const char* EventTypeName(EventType t);

/// kSpan detail flag: the span was retroactively force-emitted because its
/// transaction attempt blew the SLO while UNSAMPLED (tail-latency outlier
/// capture). The low bits still carry the Phase.
constexpr uint8_t kOutlierFlag = 0x80;

/// kSloViolation detail layout: low 3 bits = slowest Phase, bits [3..6] =
/// AbortReason of the attempt (0 when it committed).
constexpr uint32_t kSloPhaseBits = 3;
constexpr uint8_t SloDetail(Phase slowest, uint8_t abort_reason) {
  return static_cast<uint8_t>(static_cast<uint8_t>(slowest) |
                              (abort_reason << kSloPhaseBits));
}
constexpr Phase SloDetailPhase(uint8_t detail) {
  return static_cast<Phase>(detail & ((1u << kSloPhaseBits) - 1));
}
constexpr uint8_t SloDetailReason(uint8_t detail) {
  return static_cast<uint8_t>(detail >> kSloPhaseBits);
}

/// Sentinel for "no conflicting range attributed" in kTxnAbort events.
constexpr uint32_t kNoRange = 0xFFFFFFFFu;

/// One POD trace record. 32 bytes so a 2^13-slot ring is 256 KiB per worker.
struct TraceEvent {
  uint64_t ts_ns;   ///< event time (span start for kSpan), NowNanos clock
  uint64_t dur_ns;  ///< span duration; 0 for instant events
  uint64_t a;       ///< type-specific payload (see EventType)
  uint32_t b;       ///< type-specific payload (see EventType)
  uint16_t tid;     ///< worker id / synthetic service tid
  uint8_t type;     ///< EventType
  uint8_t detail;   ///< Phase, AbortReason, or flag, per EventType
};
static_assert(sizeof(TraceEvent) == 32, "keep trace events cache-friendly");

/// Fixed-size power-of-two ring of trace events owned by ONE writer thread.
///
/// Push is wait-free for the owner: one indexed store plus a release store of
/// the head counter. The head only grows; readers (the exporters, possibly in
/// a signal handler) derive the live window as [max(0, head - capacity),
/// head). A reader racing the owner may observe a slot being overwritten —
/// acceptable for a diagnostics dump, and the end-of-run dump happens after
/// the workers joined.
class TraceRing {
 public:
  TraceRing() = default;
  ~TraceRing() { delete[] events_.load(std::memory_order_relaxed); }
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Allocate the slot array (idempotent; owner thread only). `capacity` is
  /// rounded up to a power of two.
  void Init(uint32_t capacity);

  bool initialized() const {
    return events_.load(std::memory_order_acquire) != nullptr;
  }

  /// Owner-only append; drops the event when Init was never called.
  void Push(const TraceEvent& e) {
    TraceEvent* slots = events_.load(std::memory_order_relaxed);
    if (slots == nullptr) return;
    const uint64_t h = head_.load(std::memory_order_relaxed);
    slots[h & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total events ever pushed (not clamped to capacity).
  uint64_t head() const { return head_.load(std::memory_order_acquire); }
  uint32_t capacity() const { return static_cast<uint32_t>(mask_ + 1); }

  /// Copy the live window, oldest first, into `out` (appends).
  void Snapshot(std::vector<TraceEvent>* out) const;

  /// Visit the live window oldest-first without allocating (signal-safe).
  /// A reader racing the owner can see a slot mid-overwrite — acceptable
  /// for diagnostics, so each slot is copied out under a tight TSan
  /// ignore-reads bracket and the visitor only ever sees the copy.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const TraceEvent* slots = events_.load(std::memory_order_acquire);
    if (slots == nullptr) return;
    const uint64_t h = head_.load(std::memory_order_acquire);
    const uint64_t lo = h > mask_ + 1 ? h - (mask_ + 1) : 0;
    for (uint64_t seq = lo; seq < h; seq++) {
      TsanIgnoreReadsBegin();
      const TraceEvent copy = slots[seq & mask_];
      TsanIgnoreReadsEnd();
      fn(copy);
    }
  }

  /// Incremental visit for streaming consumers: deliver events with sequence
  /// number >= `from` that are still in the live window, oldest first, and
  /// return the cursor to pass next time (the current head). Events that
  /// fell out of the window between calls are skipped — the caller can
  /// detect the gap as `returned_cursor - from - delivered`.
  template <typename Fn>
  uint64_t ForEachFrom(uint64_t from, Fn&& fn) const {
    const TraceEvent* slots = events_.load(std::memory_order_acquire);
    if (slots == nullptr) return from;
    const uint64_t h = head_.load(std::memory_order_acquire);
    uint64_t lo = h > mask_ + 1 ? h - (mask_ + 1) : 0;
    if (from > lo) lo = from;
    for (uint64_t seq = lo; seq < h; seq++) {
      TsanIgnoreReadsBegin();
      const TraceEvent copy = slots[seq & mask_];
      TsanIgnoreReadsEnd();
      fn(copy);
    }
    return h;
  }

  void Reset() { head_.store(0, std::memory_order_release); }

  // --- per-worker sampling state (owner thread only) ---
  uint64_t sample_countdown = 1;  ///< txns until the next sampled one
  bool sampled = false;           ///< current txn attempt is being traced

 private:
  std::atomic<TraceEvent*> events_{nullptr};
  uint64_t mask_ = 0;
  alignas(kCacheLineSize) std::atomic<uint64_t> head_{0};
};

/// Flight-recorder configuration.
struct ObsOptions {
  /// Events per worker ring; rounded up to a power of two.
  uint32_t ring_capacity = 1u << 13;
  /// Trace 1 in N transaction attempts (1 = every txn, 0 = txn tracing off;
  /// rare control-plane events are always recorded while enabled).
  uint32_t sample_period = 64;
  /// Worker ring slots (worker ids above this are silently dropped).
  uint32_t max_workers = 128;
  /// Tail-latency SLO in microseconds (0 = outlier capture off). Attempts
  /// whose total latency exceeds this are force-captured into the worker
  /// ring even when the 1/N countdown did not sample them.
  uint32_t slo_us = 0;
};

/// Always-compiled, runtime-gated flight recorder: per-worker lock-free trace
/// rings plus one latched "service" ring for rare control-plane events
/// (range-table publishes, WAL flush batches) emitted off the worker path.
///
/// Off (no recorder installed) costs one predicted null-pointer branch at
/// each instrumentation site. Enabled, a sampled transaction records POD
/// events with one branch + one indexed store + one relaxed-ordered head
/// store; unsampled transactions pay the branch only. Worker rings are
/// allocated lazily at the worker's first transaction so idle slots cost
/// nothing.
class FlightRecorder {
 public:
  /// Synthetic tid for service-ring events in exported traces.
  static constexpr uint16_t kServiceTid = 0xFFFF;

  explicit FlightRecorder(ObsOptions options);

  /// Transaction-attempt start: advances the 1/N sampling countdown, latches
  /// the per-worker sampled flag, and (when sampled) records kTxnBegin.
  /// Returns the sampled decision.
  bool BeginTxn(uint32_t tid, uint64_t ts_ns, uint64_t txn_id);

  /// True when `tid`'s current transaction attempt is being traced.
  bool IsSampled(uint32_t tid) const {
    return tid < num_workers_ && workers_[tid].value.sampled;
  }

  /// Append to `tid`'s ring (owner thread only; drops when tid out of range).
  void Emit(uint32_t tid, EventType type, uint8_t detail, uint64_t ts_ns,
            uint64_t dur_ns, uint64_t a, uint32_t b) {
    if (tid >= num_workers_) return;
    workers_[tid].value.Push(
        {ts_ns, dur_ns, a, b, static_cast<uint16_t>(tid),
         static_cast<uint8_t>(type), detail});
  }

  /// Append a rare control-plane event to the latched service ring; callable
  /// from any thread (the WAL flusher, snapshot eviction, the watchdog).
  void EmitService(EventType type, uint8_t detail, uint64_t ts_ns,
                   uint64_t dur_ns, uint64_t a, uint32_t b);

  /// Copy every ring's live window (workers then service), oldest-first per
  /// ring, into `out`.
  void SnapshotAll(std::vector<TraceEvent>* out) const;

  /// Visit every ring's live window without allocating (signal-safe).
  template <typename Fn>
  void ForEachEvent(Fn&& fn) const {
    for (uint32_t i = 0; i < num_workers_; i++) workers_[i].value.ForEach(fn);
    service_.ForEach(fn);
  }

  /// Total events recorded across all rings (including overwritten ones).
  uint64_t TotalEvents() const;

  /// Drop all recorded events; sampling countdowns keep their position.
  void ResetRings();

  // --- stall-watchdog heartbeats (DESIGN.md §16.3) ---
  //
  // One cache-padded word per worker: (Phase + 1) << 56 | phase-entry
  // timestamp (low 56 bits of the NowNanos clock; 2^56 ns ≈ 2.3 years of
  // uptime, far past any run). 0 means idle (no attempt in flight). The
  // owner writes it with a relaxed store at phase boundaries where the
  // commit path already holds a timestamp — zero extra clock reads — and
  // the watchdog thread samples it with relaxed loads. A torn phase/ts
  // pair is impossible (single 64-bit word); a stale read just delays
  // detection by one watchdog period.

  static constexpr uint64_t kHeartbeatTsMask = (1ULL << 56) - 1;

  static constexpr uint64_t PackHeartbeat(Phase phase, uint64_t ts_ns) {
    return ((static_cast<uint64_t>(phase) + 1) << 56) |
           (ts_ns & kHeartbeatTsMask);
  }
  /// 0 when idle, else Phase + 1.
  static constexpr uint32_t HeartbeatPhasePlusOne(uint64_t word) {
    return static_cast<uint32_t>(word >> 56);
  }
  /// Phase-entry timestamp (low 56 bits of the NowNanos clock).
  static constexpr uint64_t HeartbeatTs(uint64_t word) {
    return word & kHeartbeatTsMask;
  }

  void SetHeartbeat(uint32_t tid, Phase phase, uint64_t ts_ns) {
    if (tid < num_workers_) {
      heartbeats_[tid].value.store(PackHeartbeat(phase, ts_ns),
                                   std::memory_order_relaxed);
    }
  }
  void ClearHeartbeat(uint32_t tid) {
    if (tid < num_workers_) {
      heartbeats_[tid].value.store(0, std::memory_order_relaxed);
    }
  }
  uint64_t HeartbeatWord(uint32_t tid) const {
    return tid < num_workers_
               ? heartbeats_[tid].value.load(std::memory_order_relaxed)
               : 0;
  }

  /// Tail-latency SLO threshold in nanoseconds (0 = capture off): a relaxed
  /// read of the hot-reloadable "obs_slo_us" knob.
  uint64_t SloNanos() const {
    return slo_knob_->load(std::memory_order_relaxed) * 1000;
  }

  const ObsOptions& options() const { return options_; }
  uint32_t num_workers() const { return num_workers_; }
  const TraceRing& worker_ring(uint32_t tid) const {
    return workers_[tid].value;
  }
  const TraceRing& service_ring() const { return service_; }

 private:
  ObsOptions options_;
  uint32_t num_workers_;
  std::unique_ptr<CachePadded<TraceRing>[]> workers_;
  std::unique_ptr<CachePadded<std::atomic<uint64_t>>[]> heartbeats_;
  // Hot-reloadable knob cells (KnobRegistry-owned, process-lifetime).
  std::atomic<uint64_t>* sample_knob_;
  std::atomic<uint64_t>* slo_knob_;
  TraceRing service_;
  SpinLatch service_latch_;
};

/// Install `recorder` (may be null to disable) as the process-global
/// recorder; returns the previous one. The caller owns both and must keep the
/// installed recorder alive until it is swapped out and no worker can still
/// be inside an instrumentation site (in practice: install before workers
/// start, uninstall after they join).
FlightRecorder* SetRecorder(FlightRecorder* recorder);

namespace internal {
extern std::atomic<FlightRecorder*> g_recorder;
}  // namespace internal

/// The process-global recorder, or nullptr when observability is off. The
/// relaxed load compiles to a plain load; every hot-path helper below starts
/// with this one predicted branch.
inline FlightRecorder* Recorder() {
  return internal::g_recorder.load(std::memory_order_relaxed);
}

inline bool Enabled() { return Recorder() != nullptr; }

// ---- hot-path helpers (no-ops when no recorder is installed) ----

/// Per-attempt sampling decision + kTxnBegin event.
inline void TxnBegin(uint32_t tid, uint64_t ts_ns, uint64_t txn_id) {
  FlightRecorder* r = Recorder();
  if (r != nullptr) r->BeginTxn(tid, ts_ns, txn_id);
}

inline bool Sampled(uint32_t tid) {
  FlightRecorder* r = Recorder();
  return r != nullptr && r->IsSampled(tid);
}

/// Phase span from timestamps the caller already took (zero extra clock
/// reads on the commit path). Recorded only for sampled transactions.
inline void SpanEvent(uint32_t tid, Phase phase, uint64_t start_ns,
                      uint64_t end_ns, uint64_t txn_id = 0) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && r->IsSampled(tid) && end_ns > start_ns) {
    r->Emit(tid, EventType::kSpan, static_cast<uint8_t>(phase), start_ns,
            end_ns - start_ns, txn_id, 0);
  }
}

/// Always-recorded span (sampling bypassed) for rare, long stalls — gate
/// waits would vanish from 1/N-sampled timelines otherwise.
inline void SpanEventAlways(uint32_t tid, Phase phase, uint64_t start_ns,
                            uint64_t end_ns) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && end_ns > start_ns) {
    r->Emit(tid, EventType::kSpan, static_cast<uint8_t>(phase), start_ns,
            end_ns - start_ns, 0, 0);
  }
}

inline void TxnCommit(uint32_t tid, uint64_t ts_ns, uint64_t txn_id,
                      bool is_scan) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && r->IsSampled(tid)) {
    r->Emit(tid, EventType::kTxnCommit, is_scan ? 1 : 0, ts_ns, 0, txn_id, 0);
  }
}

inline void TxnAbort(uint32_t tid, uint64_t ts_ns, uint64_t txn_id,
                     uint8_t reason, uint32_t conflict_range) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && r->IsSampled(tid)) {
    r->Emit(tid, EventType::kTxnAbort, reason, ts_ns, 0, txn_id,
            conflict_range);
  }
}

/// Rare per-worker event recorded regardless of sampling (gate enter/exit).
inline void WorkerEvent(uint32_t tid, EventType type, uint8_t detail,
                        uint64_t a, uint32_t b) {
  FlightRecorder* r = Recorder();
  if (r != nullptr) r->Emit(tid, type, detail, NowNanos(), 0, a, b);
}

/// Rare control-plane event (range publish/split/merge, WAL flush).
inline void ServiceEvent(EventType type, uint8_t detail, uint64_t ts_ns,
                         uint64_t dur_ns, uint64_t a, uint32_t b) {
  FlightRecorder* r = Recorder();
  if (r != nullptr) r->EmitService(type, detail, ts_ns, dur_ns, a, b);
}

/// Retroactive outlier emit (tail-latency capture, §16.2): a phase span
/// pushed regardless of the sampling decision, tagged with kOutlierFlag so
/// exporters can tell a forced span from a sampled one.
inline void ForceSpanOutlier(uint32_t tid, Phase phase, uint64_t start_ns,
                             uint64_t end_ns, uint64_t txn_id) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && end_ns > start_ns) {
    r->Emit(tid, EventType::kSpan,
            static_cast<uint8_t>(static_cast<uint8_t>(phase) | kOutlierFlag),
            start_ns, end_ns - start_ns, txn_id, 0);
  }
}

/// Stall-watchdog heartbeat: mark `tid` as inside `phase` since `ts_ns`.
/// The caller passes a timestamp it already took — no clock read here.
inline void HeartbeatPhase(uint32_t tid, Phase phase, uint64_t ts_ns) {
  FlightRecorder* r = Recorder();
  if (r != nullptr) r->SetHeartbeat(tid, phase, ts_ns);
}

/// Mark `tid` idle (no transaction attempt in flight).
inline void HeartbeatClear(uint32_t tid) {
  FlightRecorder* r = Recorder();
  if (r != nullptr) r->ClearHeartbeat(tid);
}

/// MVCC pre-image installs of one commit; rides the transaction's sampling
/// decision like the other per-txn events.
inline void VersionInstall(uint32_t tid, uint64_t ts_ns, uint64_t nodes) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && r->IsSampled(tid)) {
    r->Emit(tid, EventType::kVersionInstall, 0, ts_ns, 0, nodes, 0);
  }
}

/// Snapshot-scan completion (records delivered, chain resolutions); sampled.
inline void SnapshotScan(uint32_t tid, uint64_t start_ns, uint64_t end_ns,
                         uint64_t records, uint32_t chain_reads) {
  FlightRecorder* r = Recorder();
  if (r != nullptr && r->IsSampled(tid)) {
    r->Emit(tid, EventType::kSnapshotScan, 0, start_ns,
            end_ns > start_ns ? end_ns - start_ns : 0, records, chain_reads);
  }
}

/// RAII phase timer for sites without pre-existing timestamps. When the
/// current transaction of `tid` is not sampled (or observability is off) the
/// constructor reads no clock and the destructor is one branch.
class ObsSpan {
 public:
  ObsSpan(uint32_t tid, Phase phase) : tid_(tid), phase_(phase) {
    if (Sampled(tid)) start_ns_ = NowNanos();
  }
  ~ObsSpan() {
    if (start_ns_ != 0) SpanEvent(tid_, phase_, start_ns_, NowNanos());
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  uint64_t start_ns_ = 0;
  uint32_t tid_;
  Phase phase_;
};

}  // namespace obs
}  // namespace rocc
